"""Scripted race reproductions and stress workloads.

The scripted scenarios drive two threads through the exact interleavings the
design has to survive: a descending insert holding the root guard shared
while a trim tries to pop its root; an insert about to store into a bottom
node that a delete empties and unlinks, or into an empty root that a growth
drops, so the insert's re-check fails and it descends; and a delete that has
emptied its bottom node when the tree grows above its root, so its unlink
climb must follow the old root's new ``parent`` link into the stacked level.
Every pause point is a :class:`RunOnEnter` stand-in for a node's mutex,
since the array has no test hooks.  An insert's store is paused on its
bottom node's mutex, a guarded descent on the mutex of the node whose child
it installs (``cas_child`` runs under the guard's read lock), and a
delete's unlink climb on the mutex of its emptied node's parent, the
climb's first lock.  A scenario whose pause never fires reports a failure,
and ``run_scenario`` stops at the first failing iteration.  The stress
workloads run on ``bench.run_workload``, the benchmark's thread runner, and
share its failure policy.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass, field

from .bench import WorkloadConfig, join_workers, run_workload, start_worker, thread_seed
from .core import DcvebArray
from .walker import WalkReport, quiescent_walk


@dataclass
class ScenarioReport:
    name: str
    iterations: int
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


def run_scenario(name: str, iterations: int = 1) -> ScenarioReport:
    try:
        runner = _SCENARIOS[name]
    except KeyError:
        raise ValueError(
            "unknown scenario %r (known: %s)" % (name, ", ".join(sorted(_SCENARIOS)))
        ) from None
    report = ScenarioReport(name, 0)
    for i in range(iterations):
        problems = runner()
        report.iterations += 1
        if problems:
            report.failures.append((i, problems))
            break  # one failure settles it; a stuck pause costs seconds
    return report


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def _run_pair(a, b) -> list[str]:
    errors: list = []
    join_workers([start_worker(errors, a), start_worker(errors, b)], seconds_cap=30)
    return [repr(exc) for exc in errors]


class RunOnEnter:
    """Stand-in for a node's mutex that runs ``action`` once, on the first
    ``with`` entry or ``acquire`` call, before taking the real lock.

    That first entry may be an insert's ``cas_child`` (under the root
    guard's read lock) or its entry store, a delete's slot clear, an unlink
    climb's ``_clear_if_empty`` on the parent, or a growth or trim on the old
    root (under the guard's write lock).  An action that raises leaves the
    real lock untaken."""

    def __init__(self, lock, action):
        self._lock = lock
        self._action = action
        self.locked = lock.locked

    def _run_action(self):
        action, self._action = self._action, None
        if action is not None:
            action()

    def acquire(self, *args):
        self._run_action()
        return self._lock.acquire(*args)

    def release(self):
        self._lock.release()

    def __enter__(self):
        self._run_action()
        return self._lock.__enter__()

    def __exit__(self, *exc):
        return self._lock.__exit__(*exc)


def _insert_vs_trim() -> list[str]:
    """An insert's descent parks on entering the root's mutex to install
    root child 2, holding the guard's read lock; then a delete empties
    everything outside child 0 and tries to trim the root.  The descent
    holds the guard until it has installed that child, so the trim waits for
    it, and the trim's re-check must then see that child's bit and abort."""
    in_window = threading.Event()
    array = DcvebArray(branching=64)
    array.insert(3, "keep")
    array.insert(70, "evict")  # forces height 2; root occupies children {0, 1}
    root = array._params().root

    def park():
        in_window.set()
        # parked holding the guard read lock: give the trim time to block
        time.sleep(0.0005)

    root._mutex = RunOnEnter(root._mutex, park)

    def inserter():
        array.insert(130, "landed")  # root child 2

    def deleter():
        in_window.wait(5)
        array.delete(70)  # leaves only child 0 occupied -> triggers the trim

    problems = _run_pair(inserter, deleter)
    if not in_window.is_set():
        problems.append("insert never paused on the root's mutex")
    entry = array.get(130)
    if entry is None or entry.value != "landed":
        problems.append("insert lost: get(130) = %r" % (entry,))
    if array.get(70) is not None:
        problems.append("delete ineffective")
    if array.capacity_snapshot().height != 2:
        problems.append("root trimmed away under a live child-2 subtree")
    report = quiescent_walk(array)
    if report.violations:
        problems.append("walk violations: %r" % (report.violations,))
    return problems


def _insert_vs_grow_drop() -> list[str]:
    """An insert finds the empty root of a fresh tree through the index and
    parks before taking its mutex; another insert then needs a taller tree,
    and its growth drops that empty root and retires it.  The resumed insert
    must fail its re-check and descend into the new tree: no insert is
    lost."""
    in_window = threading.Event()
    resume = threading.Event()
    array = DcvebArray(branching=4, key_bits=4)
    original_root = array._params().root

    def park():
        in_window.set()
        resume.wait(5)

    original_root._mutex = RunOnEnter(original_root._mutex, park)

    def parked():
        array.insert(1, "parked")

    def grower():
        in_window.wait(5)
        try:
            array.insert(5, "grown")  # height 1 -> 2
        finally:
            resume.set()

    problems = _run_pair(parked, grower)
    if not in_window.is_set():
        problems.append("insert never paused on the root's mutex")
    for key, value in ((1, "parked"), (5, "grown")):
        entry = array.get(key)
        if entry is None or entry.value != value:
            problems.append("insert lost: get(%d) = %r" % (key, entry))
    if not original_root.retired or array._params().root is original_root:
        problems.append("growth did not drop the empty root")
    report = quiescent_walk(array)
    if report.violations:
        problems.append("walk violations: %r" % (report.violations,))
    return problems


def _insert_vs_unlink() -> list[str]:
    """An insert finds a bottom node through the index and parks before
    taking its mutex; a delete then removes that node's only entry, which
    empties it, unlinks it and retires it.  The resumed insert must fail its
    re-check, descend from the root, land in a freshly installed node and
    index that node, not the retired one, under its prefix."""
    in_window = threading.Event()
    resume = threading.Event()
    array = DcvebArray(branching=64)
    array.insert(130, "evict")  # height 2; the bottom node is root child 2
    stale = array._params().root.children[2]

    def park():
        in_window.set()
        resume.wait(5)

    stale._mutex = RunOnEnter(stale._mutex, park)

    def inserter():
        array.insert(131, "landed")

    def deleter():
        in_window.wait(5)
        try:
            array.delete(130)
        finally:
            resume.set()

    problems = _run_pair(inserter, deleter)
    if not in_window.is_set():
        problems.append("insert never paused on its node's mutex")
    entry = array.get(131)
    if entry is None or entry.value != "landed":
        problems.append("insert lost: get(131) = %r" % (entry,))
    if array.get(130) is not None:
        problems.append("delete ineffective")
    if not stale.retired or array._params().root.children[2] is stale:
        problems.append("emptied bottom node was not unlinked and retired")
    indexed = array._bottoms.get(2)
    if indexed is stale or indexed is not array._params().root.children[2]:
        problems.append("bottom index holds %r, not the fresh node" % (indexed,))
    report = quiescent_walk(array)
    if report.violations:
        problems.append("walk violations: %r" % (report.violations,))
    return problems


def _grow_vs_delete_residue() -> list[str]:
    """A delete empties the bottom node of a height-2 tree's only entry and
    parks as its unlink climb enters the old root's mutex; then an insert
    grows the tree to height 3, adopting the old root, which still claims
    the emptied node, and links it to the new top level.  The resumed climb
    empties the old root and must then follow that link and strip the new
    top's bit for it before the delete returns, or the top is left claiming
    a now-empty subtree."""
    in_window = threading.Event()
    resume = threading.Event()
    array = DcvebArray(branching=64)
    array.insert(70, "victim")  # height 2; the root holds only child 1
    root = array._params().root

    def park():
        in_window.set()
        resume.wait(5)

    root._mutex = RunOnEnter(root._mutex, park)

    def deleter():
        array.delete(70)

    def grower():
        in_window.wait(5)
        try:
            array.insert(5000, "grown")  # height 2 -> 3; old root is child 0
        finally:
            resume.set()

    problems = _run_pair(deleter, grower)
    if not in_window.is_set():
        problems.append("unlink climb never paused on the root's mutex")
    if array.get(70) is not None:
        problems.append("deleted key still visible")
    entry = array.get(5000)
    if entry is None or entry.value != "grown":
        problems.append("growth insert lost")
    if array.capacity_snapshot().height != 3:
        problems.append("height %d, not 3" % array.capacity_snapshot().height)
    report = quiescent_walk(array)
    if report.violations:
        problems.append("walk violations: %r" % (report.violations,))
    return problems


def _two_inserters_one_parent() -> list[str]:
    """Two inserts race to materialize one shared parent and then store
    sibling entries in it; the slot CAS and the summary word's locked OR
    must keep both."""
    array = DcvebArray(branching=64)
    barrier = threading.Barrier(2)

    def first():
        barrier.wait(5)
        array.insert(130, "a")

    def second():
        barrier.wait(5)
        array.insert(131, "b")

    problems = _run_pair(first, second)
    for key, value in ((130, "a"), (131, "b")):
        entry = array.get(key)
        if entry is None or entry.value != value:
            problems.append("lost insert at %d: %r" % (key, entry))
    parent = array._params().root.children[2]
    if parent is None:
        problems.append("shared parent missing")
    else:
        summary = parent.value
        n = array.branching
        for pos in (2, 3):  # 130 = [2, 2], 131 = [2, 3]
            if not summary & (1 << (n - 1 - pos)):
                problems.append("parent summary lost bit %d" % pos)
    report = quiescent_walk(array)
    if report.violations:
        problems.append("walk violations: %r" % (report.violations,))
    return problems


_SCENARIOS = {
    "insert-vs-trim": _insert_vs_trim,
    "insert-vs-grow-drop": _insert_vs_grow_drop,
    "insert-vs-unlink": _insert_vs_unlink,
    "grow-vs-delete-residue": _grow_vs_delete_residue,
    "two-inserters-one-parent": _two_inserters_one_parent,
}


# -- stress ----------------------------------------------------------------


def stress(config: WorkloadConfig, array: DcvebArray | None = None) -> WalkReport:
    """Run the four fixed-work thread groups on ``array`` (a fresh
    ``DcvebArray`` by default) with ``run_workload``, then walk it.

    Set ``config.seconds_cap`` to treat a thread still running at the cap
    as a suspected deadlock.
    """
    if array is None:
        array = DcvebArray()
    run_workload(config, array)
    return quiescent_walk(array)


def successor_liveness_run(total_queries: int = 100_000, query_threads: int = 4,
                           churn_threads: int = 4, key_span: int = 4096,
                           seed: int = 0, branching: int = 64) -> int:
    """Race ceiling queries against insert/delete churn below a pinned key.

    The largest key in the span is inserted once and never deleted, so every
    query at or below it has a qualifying entry present for the whole call
    and must not come back empty.  Returns the number of empty results; a
    worker exception is re-raised as ``RuntimeError`` (``join_workers``).
    """
    array = DcvebArray(branching=branching)
    sentinel = key_span - 1
    array.insert(sentinel, "pinned")
    stop = threading.Event()
    none_count = [0]
    count_lock = threading.Lock()
    per_thread = total_queries // query_threads

    def querier(index: int):
        randrange = random.Random(thread_seed(seed, "querier", index)).randrange
        misses = 0
        for _ in range(per_thread):
            if array.successor(randrange(sentinel + 1)) is None:
                misses += 1
        if misses:
            with count_lock:
                none_count[0] += misses

    def churner(index: int):
        randrange = random.Random(thread_seed(seed, "churner", index)).randrange
        while not stop.is_set():
            key = randrange(sentinel)
            array.insert(key, key)
            array.delete(key)

    errors: list = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        churners = [start_worker(errors, churner, i) for i in range(churn_threads)]
        queriers = [start_worker(errors, querier, i) for i in range(query_threads)]
        for t in queriers:
            t.join()
    finally:
        stop.set()  # the churners exit even when the main thread is interrupted
        sys.setswitchinterval(old_interval)
    join_workers(churners + queriers, errors)
    return none_count[0]
