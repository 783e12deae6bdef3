"""Targeted interleavings for the delete/rebuild edge cases, driven through
the test hooks, plus the hook surface itself."""

import threading

import pytest

from dcveb.core import DcvebArray, Entry
from dcveb.walker import quiescent_walk


def test_hook_points_fire_in_order():
    points = []
    array = DcvebArray(branching=64, hooks=points.append)
    array.insert(70, "x")  # snapshot, grow publish, snapshot of the new root
    assert points == ["insert-snapshot", "grow-pre-publish", "insert-snapshot"]
    points.clear()
    array.insert(3, "keep")
    assert points == ["insert-snapshot"]
    points.clear()
    array.delete(70)  # snapshot, path found, entry cleared, then a trim attempt
    assert points == ["delete-snapshot", "delete-path", "delete-cleared",
                      "trim-pre-publish"]
    points.clear()
    array.delete(71)  # absent: the descent stops before the path point
    assert points == ["delete-snapshot"]
    points.clear()
    assert array.successor(3) == Entry(3, "keep")  # exact hit: no scan
    assert array.successor(4) is None  # nothing past 3: the scan runs
    assert points == ["scan-path"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the scan skips a slot "
                   "that an insert fills behind it")
def test_scan_skip_returns_key_never_least():
    # successor(0) pauses right after _scan resolves its path (the root's
    # slot 0 is empty, so the descent stops above the bottom level).  Inside
    # the pause insert(1) and then insert(6) complete.  The resumed scan
    # climbs past slot 0 and returns 6, but no state that held 6 lacked 1:
    # a linearizable answer is 15 (before insert(1)) or 1 (after it).
    armed = [False]

    def hooks(point):
        if point == "scan-path" and armed[0]:
            armed[0] = False
            array.insert(1, 1)
            array.insert(6, 6)

    array = DcvebArray(branching=4, key_bits=4, hooks=hooks)
    array.insert(15, 15)
    armed[0] = True
    result = array.successor(0)
    assert result in (Entry(15, 15), Entry(1, 1))


def _pause_once_at(point_name, in_window, resume):
    armed = [True]

    def hooks(point):
        if point == point_name and armed[0]:
            armed[0] = False
            in_window.set()
            resume.wait(5)

    return hooks


def test_paused_delete_removes_rebuilt_entry():
    # A's delete pauses right after its snapshot; B deletes the same key and
    # re-inserts it.  A then resolves the fresh path and its delete takes
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


def test_stale_trail_delete_aborts_without_touching_rebuild():
    # delete(130) pauses after its descent found the bottom-level node.  In
    # the pause the branch is emptied (its nodes unlinked) and rebuilt.  The
    # stale node's slot is empty under its write lock, so the delete aborts
    # and leaves the rebuilt entry alone; it linearizes between the other
    # delete and the re-insert.
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
    # the inner delete cleared; the outer one stopped at its write lock
    assert points.count("delete-cleared") == 1
    assert array.get(130) == Entry(130, "new")
    assert quiescent_walk(array).ok()


def test_stale_trail_delete_after_overwrite_removes_key():
    # delete(130) pauses after its descent, and the key is overwritten in
    # the pause (a new Entry lands in the same slot).  The key was present
    # throughout, so the delete must take effect and leave it absent;
    # aborting because the slot no longer holds the Entry the descent saw
    # would not be linearizable.
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


def _start_grower(array, growers):
    """Start insert(5), which must grow the fanout-4 tree, in a daemon
    thread and give it 0.2 s to finish."""
    grower = threading.Thread(target=array.insert, args=(5, 5), daemon=True)
    grower.start()
    grower.join(0.2)
    growers.append(grower)


def _assert_growth_waited_and_adopted(array, original_root, growers):
    assert growers[0].is_alive(), "growth published inside the pinned window"
    growers[0].join(10)
    assert not growers[0].is_alive()
    assert array.get(1) == Entry(1, 1)
    assert array.get(5) == Entry(5, 5)
    assert array._params().root.children[0] is original_root
    assert quiescent_walk(array).ok()


def test_insert_survives_growth_cleanup_of_its_root():
    # insert(1) pauses after snapshotting the parameters of the empty
    # fanout-4 tree, holding the root guard's read lock.  The growth started
    # from the pause waits for the guard until insert(1) has pinned the root
    # and set its bit; it then adopts that root instead of dropping it as
    # empty.
    growers = []
    hooks, armed, _ = _run_once_at("insert-snapshot",
                                   lambda: _start_grower(array, growers))
    array = DcvebArray(branching=4, key_bits=4, hooks=hooks)
    original_root = array._params().root
    armed[0] = True
    array.insert(1, 1)
    _assert_growth_waited_and_adopted(array, original_root, growers)


class _RunOnEnter:
    """Stand-in for a node's mutex that runs ``action`` once, on the first
    ``with`` entry (an insert's bit OR), before taking the real lock."""

    def __init__(self, lock, action):
        self._lock = lock
        self._action = action
        self.acquire = lock.acquire
        self.release = lock.release

    def __enter__(self):
        action, self._action = self._action, None
        if action is not None:
            action()
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def test_growth_waits_for_pinned_insert_to_set_its_bit():
    # insert(1) has read-locked the empty root and released the guard, but
    # not yet set its bit.  A growth started there gets the guard and must
    # then wait for the old root's write lock: judging the root empty before
    # the bit lands would drop it with the insert inside.
    array = DcvebArray(branching=4, key_bits=4)
    original_root = array._params().root
    growers = []
    original_root._mutex = _RunOnEnter(original_root._mutex,
                                       lambda: _start_grower(array, growers))
    array.insert(1, 1)
    _assert_growth_waited_and_adopted(array, original_root, growers)


def test_delete_lands_on_reused_parent_node():
    # Same shape, but a sibling keeps the parent node alive across B's
    # delete+reinsert, so the new entry lands in the same node.  A resolves
    # its path after B and its delete takes effect last: the key ends up
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


@pytest.mark.parametrize("point", ["insert-snapshot", "grow-pre-publish"])
def test_raising_hook_leaks_no_lock(point):
    # A hook that raises inside insert's lock-held regions must not leave the
    # root guard or a node lock held: the delete below needs the parent and
    # root write locks and then the guard's write lock to trim.
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
        array.insert(5000, "grow")  # needs height 3
    deleter = threading.Thread(target=array.delete, args=(70,), daemon=True)
    deleter.start()
    deleter.join(10)
    assert not deleter.is_alive(), "delete blocked on a leaked lock"
    assert array.capacity_snapshot().height == 1
    array.insert(5000, "grow")
    assert array.get(5000) == Entry(5000, "grow")
    assert array.get(3) == Entry(3, "keep")
    assert quiescent_walk(array).ok()
