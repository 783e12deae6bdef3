"""Every scripted race, one test each, plus the shape of each operation's
path.  Each race is paused through a stand-in for an object the array reads
through an attribute: ``RunOnEnter`` on a node's mutex, ``SpyIndex`` on the
bottom-node index (an action before or after its k-th probe),
``ActOnFirstRead`` in a node's ``parent`` (an action before a climbing
query reads that parent), a node's slot list that acts on its first read of
one slot, or a wrapped ``_grow`` or ``_trim_top``; ``SpyGuard`` logs the
root guard's acquires and write queueing.  A race asserts that its pause
fired, so one whose pause never fires fails.

``SCRIPTED_RACES`` names five of these by their old scenario names:
``insert-vs-trim``, ``insert-vs-grow-drop``, ``insert-vs-unlink``,
``grow-vs-delete-residue`` and ``two-inserters-one-parent``.  Those take no
fixtures.  ``run_race`` repeats one until its first failure;
``test_acceptance::test_scripted_races`` runs each 1000 times with it, and
``test_scenarios`` 25 times."""

import random
import sys
import threading

import pytest

from dcveb.bitops import child_mask
from dcveb.core import DcvebArray, Entry, Node
from dcveb.walker import quiescent_walk, structure_fingerprint
from doubles import (ActOnFirstRead, RunOnEnter, RunOnEveryEnter, SpyGuard,
                     SpyIndex, record_calls)


def test_path_shape_of_each_operation():
    # Which guard acquires, index probes and trims each kind of call makes,
    # with no concurrent writer.  The probes show a delete's climb: the one
    # that unlinks a bottom node probes the index to remove its item.
    array = DcvebArray(branching=64)
    index = SpyIndex.install(array)
    guard = SpyGuard.install(array)
    trims = record_calls(array, "_trim_top")

    def shape(op, *args):
        index.probes = 0
        guard.acquires.clear()
        trims.clear()
        result = getattr(array, op)(*args)
        return (result, guard.acquires[:], index.probes, len(trims))

    # a growing insert: the descent's read, the growth's write, the read of
    # the descent that resumes in the new tree; the growth drops the empty
    # root and probes for its index item
    assert shape("insert", 70, "x") == (None, ["read", "write", "read"], 2, 0)
    assert array.capacity_snapshot().height == 2
    # prefix 0 is not indexed (the dropped root left the index): a descent
    assert shape("insert", 3, "keep") == (None, ["read"], 1, 0)
    # an insert that hits the index takes nothing
    assert shape("insert", 4, "near") == (None, [], 1, 0)
    # a delete that keeps its node non-empty touches only its slot
    assert shape("delete", 4) == (None, [], 1, 0)
    # a delete that empties its node climbs (its unlink of the node probes
    # the index) and trims, which pops the root
    assert shape("delete", 70) == (None, ["write"], 2, 1)
    assert array.capacity_snapshot().height == 1
    # a delete of an absent key makes one probe and no climb
    assert shape("delete", 71) == (None, [], 1, 0)
    # an order query makes one probe, whether it answers in its start node
    # or climbs past the root to answer None
    assert shape("successor", 3) == (Entry(3, "keep"), [], 1, 0)
    assert shape("successor", 4) == (None, [], 1, 0)
    assert shape("predecessor", 63) == (Entry(3, "keep"), [], 1, 0)
    assert shape("get", 3) == (Entry(3, "keep"), [], 1, 0)
    assert quiescent_walk(array).ok()


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP, Linearizable order queries: a climb "
                   "skips a slot that an insert fills behind it")
def test_scan_skip_returns_key_never_least():
    # successor(1) finds nothing past slot 1 in the bottom node holding 0
    # and climbs to the root.  Before it reads the root, insert(2) and then
    # insert(6) complete.  The climb resumes past the node's range, at 4,
    # and returns 6, but no state that held 6 lacked 2: a linearizable
    # answer is 15 (before insert(2)) or 2 (after it).
    array = DcvebArray(branching=4, key_bits=4)
    array.insert(0, 0)
    array.insert(15, 15)
    bottom = array._bottoms[0]
    fired = []

    def fill():
        fired.append(True)
        array.insert(2, 2)
        array.insert(6, 6)

    bottom.parent = ActOnFirstRead(bottom.parent, fill)
    result = array.successor(1)
    if fired != [True]:
        # not an AssertionError: a pause that never fires must not pass as
        # the expected failure
        raise RuntimeError("the climb never read the root")
    assert result in (Entry(15, 15), Entry(2, 2))


def test_climb_sees_growth_made_inside_it():
    # successor(1) finds the lone height-1 root through the index.  Right
    # after that probe, insert(20) grows the tree to height 3, stacking two
    # levels on the root.  The root has nothing past slot 1, so the call
    # climbs; the growth linked the root to the level stacked on it, so the
    # climb finds 20 instead of stopping at the old capacity.
    array = DcvebArray(branching=4, key_bits=8)
    array.insert(0, 0)
    assert array.capacity_snapshot().height == 1
    index = SpyIndex.install(array)
    fired = []

    def grow():
        fired.append(True)
        array.insert(20, 20)

    index.arm(grow, probe=1, after=True)
    assert array.successor(1) == Entry(20, 20)
    assert fired == [True]
    assert array.capacity_snapshot().height == 3


def _pause_before_probe(array, in_window, resume):
    """Make the next index probe (an operation's first) pause until
    ``resume`` is set."""

    def pause():
        in_window.set()
        resume.wait(5)

    SpyIndex.install(array).arm(pause)


def test_paused_delete_removes_rebuilt_entry():
    # A's delete pauses before it probes the index; B deletes the same key
    # and re-inserts it.  A then finds the fresh node and its delete takes
    # effect last: the rebuilt entry is (legitimately) removed.
    in_window = threading.Event()
    resume = threading.Event()
    array = DcvebArray(branching=64)
    array.insert(130, "old")
    _pause_before_probe(array, in_window, resume)

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
    assert not any(t.is_alive() for t in threads)
    assert in_window.is_set(), "the delete never paused at its probe"
    assert array.get(130) is None
    assert quiescent_walk(array).ok()


def test_stale_trail_delete_aborts_without_touching_rebuild():
    # delete(130) pauses right after the index handed it the bottom-level
    # node.  In the pause the branch is emptied (its nodes unlinked) and
    # rebuilt.  The stale node is retired under its mutex, so the delete
    # aborts and leaves the rebuilt entry alone; it linearizes between the
    # other delete and the re-insert.  It takes no mutex but its stale
    # node's: a climb would enter the root's, which the rebuild spies on.
    climbed = []

    def rebuild():
        array.delete(130)   # empties the branch: the parent is unlinked
        array.insert(130, "new")
        root = array._ap.root
        root._mutex = RunOnEnter(root._mutex, lambda: climbed.append(True))

    array = DcvebArray(branching=64)
    array.insert(130, "old")
    stale = array._ap.root.children[2]
    SpyIndex.install(array).arm(rebuild, after=True)
    array.delete(130)
    assert stale.retired and array._ap.root.children[2] is not stale
    assert climbed == []
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
        parent = array._ap.root.children[2]
        seen.append(parent.children[2])
        array.insert(130, "new")
        assert parent.children[2] != seen[0]

    array = DcvebArray(branching=64)
    array.insert(130, "old")
    SpyIndex.install(array).arm(overwrite, after=True)
    array.delete(130)
    assert seen == [Entry(130, "old")]
    assert array.get(130) is None
    assert quiescent_walk(array).ok()


def _start_grower(array, growers, key=5, seconds=10):
    """Start insert(key), which must grow the fanout-4 tree, in a daemon
    thread and give it ``seconds`` to finish."""
    grower = threading.Thread(target=array.insert, args=(key, key), daemon=True)
    grower.start()
    grower.join(seconds)
    growers.append(grower)


def test_insert_survives_growth_cleanup_of_its_root():
    # insert(1) finds the empty root of a fresh fanout-4 tree through the
    # index and parks on entering its mutex, holding no guard.  The growth
    # started in the pause is not held off: it finds the root empty, drops
    # it and retires it.  The parked insert's re-check finds the root
    # retired, so it descends into the new tree: no insert is lost.
    array = DcvebArray(branching=4, key_bits=4)
    original_root = array._ap.root
    growers = []
    parked = []

    def grow():
        _start_grower(array, growers)
        parked.append(growers[0].is_alive())

    original_root._mutex = RunOnEnter(original_root._mutex, grow)
    array.insert(1, 1)
    assert parked == [False], "growth waited for the parked insert"
    assert original_root.retired and original_root.children[1] is None
    assert array.capacity_snapshot().height == 2
    params = array._ap
    assert params.root is not original_root
    assert array._bottoms[0] is params.root.children[0]
    for key in (1, 5):
        assert array.get(key) == Entry(key, key)
    assert quiescent_walk(array).ok()


def test_growth_waits_for_a_descending_insert_and_adopts_its_root():
    # The height-2 root of a fanout-4 tree is empty and nothing is indexed,
    # so insert(1) descends.  A growth started as the descent enters the
    # root's mutex to install root child 0, while it holds the root guard's
    # read lock, waits for the guard.  The descent installs that child
    # before it releases the guard, so the growth then finds the root
    # non-empty and adopts it as child 0 instead of dropping it with the
    # insert's node inside.
    growers = []
    waited = []

    def grow():
        assert guard.held_for_reading()
        _start_grower(array, growers, 20, seconds=0.2)
        waited.append(growers[0].is_alive())

    array = DcvebArray(branching=4, key_bits=6)
    array.insert(5, 5)
    array.delete(5)
    original_root = array._ap.root
    assert original_root.value == 0 and array._bottoms == {}
    guard = SpyGuard.install(array)
    original_root._mutex = RunOnEnter(original_root._mutex, grow)
    array.insert(1, 1)
    assert waited == [True], "growth published inside the descent"
    growers[0].join(10)
    assert not growers[0].is_alive()
    assert array.capacity_snapshot().height == 3
    assert array._ap.root.children[0] is original_root
    assert not original_root.retired
    assert array.get(1) == Entry(1, 1)
    assert array.get(20) == Entry(20, 20)
    assert quiescent_walk(array).ok()


def test_trim_waits_for_a_descending_insert_and_keeps_its_root():
    # The height-2 root holds children 0 and 1 and prefix 2 is not indexed,
    # so insert(130) descends.  It pauses as the descent enters the root's
    # mutex to install root child 2, holding the root guard's read lock.
    # The pause starts delete(70) in a thread: it empties child 1, unlinks
    # it, and tries to trim the root, whose only occupant is now child 0.
    # Once the trim's write acquire is queued on the guard, the insert
    # resumes.  The descent installs child 2 before it releases the guard,
    # so the trim's re-check under the root's mutex sees that child's bit
    # and keeps the root.
    array = DcvebArray(branching=64)
    array.insert(3, "keep")
    array.insert(70, "evict")  # height 2; root children {0, 1}
    root = array._ap.root
    guard = SpyGuard.install(array)
    deleters = []
    queued = []

    def evict():
        assert guard.held_for_reading()
        deleter = threading.Thread(target=array.delete, args=(70,), daemon=True)
        deleter.start()
        deleters.append(deleter)
        queued.append(guard.write_queued.wait(5))

    root._mutex = RunOnEnter(root._mutex, evict)
    array.insert(130, "landed")
    assert len(queued) == 1, "the descent never paused on the root's mutex"
    assert queued == [True], "the trim never queued behind the descent"
    deleters[0].join(10)
    assert not deleters[0].is_alive()
    assert array.capacity_snapshot().height == 2 and array._ap.root is root
    assert not root.retired
    assert array.get(130) == Entry(130, "landed")
    assert array.get(70) is None
    assert quiescent_walk(array).ok()


def test_delete_lands_on_reused_parent_node():
    # Same shape, but a sibling keeps the parent node alive across B's
    # delete+reinsert, so the new entry lands in the same node.  A probes
    # the index after B and its delete takes effect last: the key ends up
    # absent.
    in_window = threading.Event()
    resume = threading.Event()
    array = DcvebArray(branching=64)
    array.insert(130, "old")
    array.insert(131, "sibling")
    parent_before = array._ap.root.children[2]
    _pause_before_probe(array, in_window, resume)

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
    assert not any(t.is_alive() for t in threads)
    assert in_window.is_set(), "the delete never paused at its probe"
    assert array._ap.root.children[2] is parent_before
    assert array.get(130) is None
    assert array.get(131) == Entry(131, "sibling")
    assert quiescent_walk(array).ok()


def test_walker_flags_summary_high_bits():
    array = DcvebArray(branching=8, key_bits=16)
    array.insert(3, "x")
    root = array._ap.root
    root.value |= 1 << 60
    report = quiescent_walk(array)
    assert any(v[1] == "summary-high-bits" for v in report.violations)


@pytest.mark.parametrize("point", ["insert-snapshot", "grow-pre-publish",
                                   "delete-path", "delete-cleared",
                                   "trim-pre-publish"])
def test_raising_hook_leaks_no_lock(point, assert_no_lock_held):
    # An exception raised inside a write path must not leave the root guard
    # or a node mutex held: the writes below need the node mutexes on 70's
    # path, the guard's write lock to trim and then to grow.  A
    # ``RunOnEnter`` action on a node's mutex raises it at each point: the
    # descent and the growth while they hold the guard, the trim under its
    # write lock.
    array = DcvebArray(branching=64)
    array.insert(3, "keep")
    array.insert(70, "drop")  # height 2; root children {0, 1}
    guard = SpyGuard.install(array)
    root = array._ap.root
    fired = []

    def writing():
        return guard._writer_active

    def fail(held=None):
        def action():
            assert held is None or held()
            fired.append(point)
            raise RuntimeError("injected at " + point)
        return action

    def arm(node, action):
        node._mutex = RunOnEnter(node._mutex, action)

    if point == "insert-snapshot":  # cas_child of root child 2, read lock held
        arm(root, fail(guard.held_for_reading))
    elif point == "grow-pre-publish":  # the old root, write lock held
        arm(root, fail(writing))
    elif point == "delete-path":  # the indexed node, before its slot clear
        arm(array._bottoms[1], fail())
    elif point == "delete-cleared":  # the emptied node's parent: first lock
        arm(root, fail())
    else:  # the delete's climb enters the root first, then the trim
        arm(root, lambda: arm(root, fail(writing)))
    with pytest.raises(RuntimeError, match="injected at " + point):
        if point == "insert-snapshot":
            array.insert(130, "lost")  # descends to install root child 2
        elif point == "grow-pre-publish":
            array.insert(5000, "grow")  # needs height 3
        else:
            array.delete(70)
    assert fired == [point]
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
    array = DcvebArray(branching=64)
    array.insert(130, "keep")
    node = array._bottoms[2]
    node.children = _FailingSlots(node.children)
    index = SpyIndex.install(array)
    guard = SpyGuard.install(array)
    with pytest.raises(RuntimeError):
        array.insert(131, "lost")
    # the index path: one probe, no guard, no descent
    assert (index.probes, guard.acquires) == (1, [])
    assert not node._mutex.locked()
    assert_no_lock_held(array)
    node.children = list(node.children)
    index.probes = 0  # the walk's own queries probe the index
    array.insert(131, "landed")
    assert (index.probes, guard.acquires) == (1, [])
    assert array.get(131) == Entry(131, "landed")
    assert array.get(130) == Entry(130, "keep")
    assert quiescent_walk(array).ok()
    assert_no_lock_held(array)


@pytest.mark.parametrize("query", ["successor", "predecessor"])
def test_climb_passes_a_neighbour_unlinked_during_it(query):
    # The query finds nothing on its search side in its own bottom node and
    # climbs to the root.  Before it reads the root, a delete removes the
    # neighbouring prefix's only entry, which unlinks and de-indexes its
    # node and clears the root's bit for it.  The climb finds that slot
    # empty, moves past it on the root's word, and returns the next live
    # entry beyond the emptied prefix, with no index probe after its first.
    fired = []

    def evict():
        fired.append(index.probes)
        array.delete(neighbour)
        index.probes = 0

    array = DcvebArray(branching=64, key_bits=12)
    if query == "successor":
        keys, neighbour, start, expected = (5, 70, 200), 70, 6, 200
    else:
        keys, neighbour, start, expected = (5, 130, 200), 130, 199, 5
    for key in keys:
        array.insert(key, key)
    assert neighbour >> 6 in array._bottoms
    bottom = array._bottoms[start >> 6]
    root = bottom.parent
    bottom.parent = ActOnFirstRead(root, evict)
    index = SpyIndex.install(array)
    assert getattr(array, query)(start) == Entry(expected, expected)
    assert (fired, index.probes) == ([1], 0)
    assert neighbour >> 6 not in array._bottoms
    assert root.children[neighbour >> 6] is None
    bottom.parent = root
    assert quiescent_walk(array).ok()


class _ActOnFirstSlotRead(list):
    """Slot list that runs ``action`` on its first read of slot ``pos``,
    then returns what the slot holds."""

    def __init__(self, slots, pos, action):
        super().__init__(slots)
        self._pos = pos
        self._action = action

    def __getitem__(self, pos):
        if pos == self._pos and self._action is not None:
            action, self._action = self._action, None
            action()
        return super().__getitem__(pos)


@pytest.mark.parametrize("query", ["successor", "predecessor"])
def test_scan_rereads_a_slot_emptied_after_the_word_read(query):
    # The query's own slot is empty, so it reads the node's word, which
    # names slot q as the nearest filled one.  Between that word read and
    # the read of slot q, a delete empties slot q; the node keeps another
    # entry, so it stays linked.  The query finds slot q empty, reads the
    # word again from q, and returns the next live entry past q.
    array = DcvebArray(branching=64, key_bits=6)  # one node: the root
    if query == "successor":
        gone, kept, start = 10, 20, 5
    else:
        gone, kept, start = 20, 10, 30
    for key in (gone, kept):
        array.insert(key, key)
    node = array._bottoms[0]
    fired = []

    def evict():
        fired.append(True)
        array.delete(gone)

    node.children = _ActOnFirstSlotRead(node.children, gone, evict)
    assert getattr(array, query)(start) == Entry(kept, kept)
    assert fired == [True]
    assert array.get(gone) is None and array._bottoms[0] is node
    assert not node.retired and node.value == child_mask(kept, 64)
    assert quiescent_walk(array).ok()


def _insert_while_its_indexed_node_is_unlinked():
    # insert(131) finds the node holding only 130 through the index and
    # parks on entering its mutex, after one probe and holding no guard.
    # delete(130) runs to completion in the pause: it empties, unlinks,
    # retires and de-indexes that node.
    array = DcvebArray(branching=64)
    array.insert(130, "evict")
    stale = array._bottoms[2]
    index = SpyIndex.install(array)
    guard = SpyGuard.install(array)
    fired = []

    def unlink():
        assert (index.probes, guard.acquires) == (1, [])
        assert guard._active_readers == 0
        array.delete(130)
        assert stale.retired and 2 not in array._bottoms
        fired.append(True)

    stale._mutex = RunOnEnter(stale._mutex, unlink)
    array.insert(131, "landed")
    assert fired == [True], "the insert never paused on its node's mutex"
    return array, stale, guard


def test_insert_restarts_when_its_bottom_node_is_unlinked():
    # The insert's re-check under the mutex fails, so the entry lands in a
    # fresh node; the stale node never receives it.
    array, stale, _ = _insert_while_its_indexed_node_is_unlinked()
    assert stale.children[3] is None
    fresh = array._ap.root.children[2]
    assert fresh is not stale and not fresh.retired
    assert array.get(131) == Entry(131, "landed")
    assert array.get(130) is None
    assert quiescent_walk(array).ok()


def test_index_hit_insert_falls_back_when_its_node_is_unlinked():
    # The same race, seen by its path: the fallback is the guarded descent,
    # which installs and indexes the fresh node; the delete's climb, which
    # unlinked the stale node in the pause, takes no guard.
    array, stale, guard = _insert_while_its_indexed_node_is_unlinked()
    assert guard.acquires == ["read"]
    fresh = array._ap.root.children[2]
    assert fresh is not stale and array._bottoms[2] is fresh
    assert quiescent_walk(array).ok()


def test_descent_restarts_when_its_bottom_node_is_unlinked():
    # insert(131) parks on entering the mutex of the node holding 130.  In
    # the pause delete(130) retires that node and insert(130) installs a
    # fresh one, so the re-check fails and the insert descends.  The descent
    # reaches the fresh node and parks on its mutex, where delete(130)
    # retires that node too: the store finds it retired and the insert's
    # loop restarts into a fresh descent from the published root, which
    # installs and indexes a third node.
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
    third = array._ap.root.children[2]
    assert third not in (stale, fresh) and array._bottoms[2] is third
    assert array.get(131) == Entry(131, "landed")
    assert array.get(130) is None
    assert quiescent_walk(array).ok()


def test_descent_restarts_when_a_node_on_its_path_is_unlinked():
    # Height 3: root child 0 leads to the bottom node holding 5, and root
    # child 3 to the one holding 60.  Prefix 2 is not indexed, so insert(9)
    # descends and parks on entering the mutex of root child 0 for
    # ``cas_child(2)``.  In the pause delete(5) empties its bottom node and
    # climbs, unlinking and retiring root child 0 too.  The resumed
    # ``cas_child`` finds its node retired and answers None, so the insert
    # restarts: it takes the guard again, reads the published root and
    # installs a fresh path.
    array = DcvebArray(branching=4, key_bits=6)
    array.insert(5, 5)
    array.insert(60, 60)
    root = array._ap.root
    old = root.children[0]
    guard = SpyGuard.install(array)
    fired = []

    def unlink():
        array.delete(5)
        fired.append(True)

    old._mutex = RunOnEnter(old._mutex, unlink)
    array.insert(9, 9)
    assert fired == [True], "the descent never paused on the node's mutex"
    assert old.retired and old.children[2] is None
    fresh = root.children[0]
    assert fresh is not old and not fresh.retired
    assert array._bottoms[2] is fresh.children[2]
    assert array.get(9) == Entry(9, 9)
    assert quiescent_walk(array).ok()
    assert guard.acquires == ["read", "read"]


def test_racing_descents_share_the_node_installed_first():
    # Prefix 2 of the height-2 tree is not indexed, so insert(130) descends.
    # It pauses as the descent enters the root's mutex for ``cas_child(2)``,
    # and in the pause insert(131) descends the same way and installs root
    # child 2 first.  The resumed ``cas_child`` finds the slot filled and
    # must hand back the node already there, so both entries land in one
    # node and neither is lost.
    array = DcvebArray(branching=64)
    array.insert(70, 70)  # height 2; root child 1
    root = array._ap.root
    fired = []

    def race():
        array.insert(131, "b")
        fired.append(root.children[2])

    root._mutex = RunOnEnter(root._mutex, race)
    array.insert(130, "a")
    assert len(fired) == 1, "the descent never paused on the root's mutex"
    shared = fired[0]
    assert root.children[2] is shared and array._bottoms[2] is shared
    assert shared.value == child_mask(2, 64) | child_mask(3, 64)
    assert array.get(130) == Entry(130, "a")
    assert array.get(131) == Entry(131, "b")
    assert quiescent_walk(array).ok()


def test_index_hit_insert_lands_in_a_root_that_a_growth_adopts():
    # The height-1 root holds 1, so insert(2) stores through the index.  It
    # parks on entering the root's mutex, holding no guard, while insert(5)
    # grows the tree: the growth is not held off, finds the root non-empty
    # and adopts it as child 0.  The adopted root is still live, so the
    # parked insert's re-check passes and its entry lands there.
    array = DcvebArray(branching=4, key_bits=4)
    array.insert(1, 1)
    root = array._ap.root
    growers = []
    parked = []

    def grow():
        _start_grower(array, growers)
        parked.append(growers[0].is_alive())

    root._mutex = RunOnEnter(root._mutex, grow)
    array.insert(2, 2)
    assert parked == [False], "growth waited for the parked insert"
    assert array.capacity_snapshot().height == 2
    assert array._ap.root.children[0] is root
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
    root = array._ap.root

    def empty_and_grow():
        array.delete(1)
        array.insert(5, 5)
        assert array._ap.root is not root

    root._mutex = RunOnEnter(root._mutex, empty_and_grow)
    array.insert(2, 2)
    assert array.get(2) == Entry(2, 2)
    assert array.get(5) == Entry(5, 5)
    assert array.get(1) is None
    assert root.retired and root.children[2] is None
    assert quiescent_walk(array).ok()


def test_delete_that_keeps_its_node_non_empty_touches_only_its_slot():
    # A delete whose bottom node keeps another entry clears the slot and its
    # bit under that node's mutex and returns: no guard, no climb, no trim.
    # The root is the parent of every bottom node here, so a climb would
    # enter its mutex.  A delete of a key that is absent from an indexed
    # node changes nothing, and one whose prefix is not indexed returns at
    # the probe.
    array = DcvebArray(branching=64)
    for key in (5, 130, 131, 4000):
        array.insert(key, key)
    expected = DcvebArray(branching=64)
    for key in (5, 131, 4000):
        expected.insert(key, key)
    index = SpyIndex.install(array)
    guard = SpyGuard.install(array)
    trims = record_calls(array, "_trim_top")
    params = array._ap
    root = params.root
    assert all(node.parent is root for node in array._bottoms.values())
    climbed = []
    root._mutex = RunOnEnter(root._mutex, lambda: climbed.append(True))
    bottoms = dict(array._bottoms)
    before = structure_fingerprint(array)
    array.delete(130)
    assert (index.probes, guard.acquires, climbed, trims) == (1, [], [], [])
    assert array._ap is params and array._bottoms == bottoms
    after = structure_fingerprint(array)
    assert after == structure_fingerprint(expected)
    array.insert(130, 130)  # through the index: writes only that slot back
    assert structure_fingerprint(array) == before
    array.delete(130)
    index.probes = 0  # the fingerprints' queries probe the index
    array.delete(132)  # prefix 2 is indexed, slot 4 is empty
    assert index.probes == 1
    array.delete(200)  # prefix 3 is not indexed
    assert index.probes == 2
    assert (guard.acquires, climbed, trims) == ([], [], [])
    assert structure_fingerprint(array) == after
    assert quiescent_walk(array).ok()


def test_insert_indexes_its_bottom_node_before_the_bit_and_entry_stores():
    # Every insert writes the index item under the bottom node's mutex,
    # after the retired check and before the bit and the entry: a node that
    # holds an entry is always indexed, and a node that a delete unlinks can
    # have no item written after the unlink.  That holds for a node the
    # descent reaches and for one found through the index, which takes no
    # guard and makes no descent, an empty one included.
    array = DcvebArray(branching=64)
    index = SpyIndex.install(array)
    seen = index.stores
    guard = SpyGuard.install(array)
    root = array._ap.root
    array.insert(5, "a")  # the fresh, empty root: through the index
    assert seen == [(0, True, False, 0, [None] * 64)]
    assert (guard.acquires, index.probes) == ([], 1)
    array.insert(130, "b")  # height 2; the root holding 5 is adopted
    assert array._ap.root.children[0] is root
    seen.clear()
    array.insert(200, "c")  # prefix 3: a fresh bottom node, by the descent
    node = array._ap.root.children[3]
    assert seen == [(3, True, False, 0, [None] * 64)]
    assert array._bottoms[3] is node
    assert array.get(200) == Entry(200, "c")
    node = array._bottoms[2]
    word, slots = node.value, list(node.children)
    seen.clear()
    guard.acquires.clear()
    index.probes = 0
    array.insert(131, "d")  # prefix 2 holds 130: through the index
    assert seen == [(2, True, False, word, slots)]
    assert (guard.acquires, index.probes) == ([], 1)
    assert array.get(131) == Entry(131, "d")


def test_insert_into_an_emptied_node_keeps_it_linked():
    # delete(130) empties the bottom node of prefix 2 and pauses as its
    # climb enters the parent's (the root's) mutex, before it locks
    # the node.  In the pause insert(131) stores into that still-linked,
    # indexed, empty node through the index, with one probe and no guard.
    # The resumed climb finds the node non-empty under its mutex and
    # leaves it linked and indexed.
    fired = []

    def refill():
        assert node.value == 0 and not node.retired
        fired.append(True)
        index.probes = 0
        array.insert(131, "landed")
        assert (index.probes, guard.acquires) == (1, [])

    array = DcvebArray(branching=64)
    array.insert(5, 5)
    array.insert(130, "drop")  # height 2; root children {0, 2}
    node = array._bottoms[2]
    index = SpyIndex.install(array)
    guard = SpyGuard.install(array)
    root = array._ap.root
    root._mutex = RunOnEnter(root._mutex, refill)
    array.delete(130)
    assert fired == [True]
    assert guard.acquires == []
    assert array._ap.root.children[2] is node and not node.retired
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
    stale = array._ap.root.children[2]
    seen = {}

    def probe():
        seen["indexed"] = array._bottoms.get(2)
        seen["get"] = array.get(132)

    def unlink_and_refill():
        array.delete(130)
        array.insert(132, "first")
        fresh = array._ap.root.children[2]
        fresh._mutex = RunOnEnter(fresh._mutex, probe)

    stale._mutex = RunOnEnter(stale._mutex, unlink_and_refill)
    array.insert(131, "landed")
    fresh = array._ap.root.children[2]
    assert fresh is not stale and stale.retired
    assert seen == {"indexed": fresh, "get": Entry(132, "first")}
    assert array._bottoms[2] is fresh
    assert array.get(131) == Entry(131, "landed")
    assert quiescent_walk(array).ok()


def test_delete_of_a_retired_bottom_node_removes_nothing_else():
    # delete(130) pauses after its index probe.  In the pause an inner delete
    # empties and retires the bottom node, and 130 returns under a fresh
    # node.  The outer delete finds its node retired and returns: the
    # structure is exactly as the pause left it, and the outer delete never
    # enters the mutex of the root, the parent of every bottom node.
    seen = {}
    climbed = []

    def rebuild():
        seen["stale"] = array._ap.root.children[2]
        array.delete(130)
        array.insert(130, "new")
        seen["after"] = structure_fingerprint(array)
        root = array._ap.root
        root._mutex = RunOnEnter(root._mutex, lambda: climbed.append(True))

    array = DcvebArray(branching=64)
    for key in (5, 130, 4000):
        array.insert(key, key)
    SpyIndex.install(array).arm(rebuild, after=True)
    array.delete(130)
    assert seen["stale"].retired
    assert climbed == []
    assert structure_fingerprint(array) == seen["after"]
    assert array.get(130) == Entry(130, "new")
    assert quiescent_walk(array).ok()


def test_delete_walk_stops_at_a_trimmed_root():
    # delete(3) empties the bottom node A of the height-2 root R, climbs to
    # A's parent R and pauses as it enters R's mutex to unlink A.  In the
    # pause delete(70) empties root child 1, so the trim pops R, publishes A
    # as the root with no parent and retires R, which still holds A in slot
    # 0.  The resumed climb read A's link before the trim, finds R retired
    # under its mutex, so it stops there and the published root A stays in
    # use.
    fired = []

    def evict():
        fired.append(True)
        array.delete(70)
        assert array._ap.root is bottom

    array = DcvebArray(branching=64)
    array.insert(3, "drop")
    array.insert(70, "evict")
    old_root = array._ap.root
    bottom = old_root.children[0]
    old_root._mutex = RunOnEnter(old_root._mutex, evict)
    array.delete(3)
    assert fired == [True]
    assert old_root.retired
    assert old_root.children[0] is bottom and bottom.parent is None
    assert array._ap.root is bottom and not bottom.retired
    writer = threading.Thread(target=array.insert, args=(5, "new"), daemon=True)
    writer.start()
    writer.join(10)
    assert not writer.is_alive(), "insert spun on a retired root"
    assert array.get(5) == Entry(5, "new")
    assert array.get(3) is None
    assert quiescent_walk(array).ok()


def test_delete_climb_crosses_a_level_stacked_under_it():
    # delete(5) empties the bottom node under child 1 of the height-2 root R
    # and parks as its climb enters R's mutex.  In the pause insert(20)
    # grows the tree to height 3: R still holds child 1, so the growth
    # stacks a new top T on it and links R to T.  The resumed climb empties
    # R, reads R's link, and clears T's bit 0, unlinking R.  The deleting
    # thread takes no guard: only the growing insert does.
    growers = []
    stacked = []

    def grow():
        _start_grower(array, growers, 20)
        stacked.append(array._ap.root)

    array = DcvebArray(branching=4, key_bits=6)
    array.insert(5, 5)  # height 2; R holds only child 1
    old_root = array._ap.root
    bottom = array._bottoms[1]
    guard = SpyGuard.install(array)
    old_root._mutex = RunOnEnter(old_root._mutex, grow)
    array.delete(5)
    assert not growers[0].is_alive(), "growth waited for the parked climb"
    top = stacked[0]
    assert top is array._ap.root and top.children[1] is not None
    assert old_root.parent is top and bottom.parent is old_root
    assert old_root.retired and bottom.retired
    assert top.children[0] is None and top.value == child_mask(1, 4)
    assert threading.get_ident() not in guard.by_thread
    assert list(guard.by_thread.values()) == [["read", "write", "read"]]
    assert array.capacity_snapshot().height == 3
    assert array.get(5) is None and array.get(20) == Entry(20, 20)
    assert quiescent_walk(array).ok()


def test_filled_slot_never_has_a_clear_bit_under_churn():
    # The lock-free queries trust a filled slot without reading its bit.
    # Two writers churn keys through growths, unlink climbs and trims while
    # a checker walks the tree from the published root, holding at most one
    # node's mutex at a time: under it no filled slot may have a clear bit.
    # Each writer deletes the low key it just inserted, so the root often
    # holds only one writer's high key; that writer's delete then empties
    # the root while the other writer's growth stacks levels on it, and its
    # climb must go on into the stacked levels.
    # Between locked sweeps it makes unlocked ones, reading each slot, the
    # word and the slot again.  A slot is never refilled with an object it
    # held before, so a slot that held one object across the word read had
    # its bit set.  The unlocked sweeps catch a writer that fills a slot
    # before it sets the bit; the locked one cannot, since every writer
    # holds the node's mutex across both stores.
    crossed = []
    grown = []
    trimmed = []
    stop = threading.Event()
    bad = []
    sweeps = [0]

    # A level above the root a delete's start saw can only have been stacked
    # by a growth that published while that delete ran.  Each level a growth
    # stacks gets a mutex stand-in that logs a deleting thread's entry,
    # outside its trim, onto such a level that is still in the tree
    # (unretired): the climb reached it through the old root's ``parent``
    # link.
    array = DcvebArray(branching=4, key_bits=12)

    class Mark(threading.local):
        top = None  # the root shift the thread's delete started under
        trimming = False

    mark = Mark()

    def marking(method, name, value):
        def marked(*args):
            setattr(mark, name, value())
            try:
                return method(*args)
            finally:
                delattr(mark, name)  # back to the class default
        return marked

    def log_crossing(level, s):
        def log():
            if (mark.top is not None and not mark.trimming and s > mark.top
                    and not level.retired):
                crossed.append(s)
        return log

    # only a growth publish raises the root shift and only a trim publish
    # lowers it, so a call that saw the shift move that way saw such a publish
    def watching(method, moved, log):
        def watched(*args):
            top = array._ap.top
            method(*args)
            if moved(array._ap.top, top):
                log.append(top)
        return watched

    grow = watching(array._grow, int.__gt__, grown)

    def grow_and_spy(key):
        # the levels above the old root are the ones a growth stacked on it
        params = array._ap
        grow(key)
        level, s = params.root.parent, params.top
        while level is not None and not isinstance(level._mutex, RunOnEveryEnter):
            s += array._shift
            level._mutex = RunOnEveryEnter(level._mutex, log_crossing(level, s))
            level = level.parent

    array._grow = grow_and_spy
    array._trim_top = marking(watching(array._trim_top, int.__lt__, trimmed),
                              "trimming", lambda: True)
    array.delete = marking(array.delete, "top", lambda: array._ap.top)

    def writer(seed):
        rng = random.Random(seed)
        while not stop.is_set():
            low = rng.randrange(16)
            array.insert(low, low)
            array.delete(low)
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
        pending = [array._ap.root]
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
    assert grown and trimmed
    assert crossed
    assert quiescent_walk(array).ok()


SCRIPTED_RACES = {
    "insert-vs-trim": test_trim_waits_for_a_descending_insert_and_keeps_its_root,
    "insert-vs-grow-drop": test_insert_survives_growth_cleanup_of_its_root,
    "insert-vs-unlink": test_insert_restarts_when_its_bottom_node_is_unlinked,
    "grow-vs-delete-residue": test_delete_climb_crosses_a_level_stacked_under_it,
    "two-inserters-one-parent": test_racing_descents_share_the_node_installed_first,
}


def run_race(race, iterations):
    """Run ``race`` up to ``iterations`` times, stopping at its first
    failure, and return ``(runs, failure)``: the failing run's exception
    type and message (whitespace collapsed, first 300 characters), or ""."""
    runs = 0
    failure = ""
    while runs < iterations and not failure:
        runs += 1
        try:
            race()
        except Exception as exc:  # noqa: BLE001 - returned as the failure
            failure = "%s: %s" % (type(exc).__name__,
                                  " ".join(str(exc).split())[:300])
    return runs, failure
