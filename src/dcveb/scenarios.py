"""Scripted race reproductions and stress workloads.

The scripted scenarios drive two threads through the exact interleavings the
design has to survive: an insert caught between snapshotting the published
parameters and locking the root while a trim tries to pop that root, and a
delete whose tree grows underneath it mid-flight, leaving stale occupancy
bits for the residue cleaner.  Test hooks compiled into the array (no-ops by
default) provide the pause points.  The stress workloads run on the
benchmark's thread driver (``bench.run_workload``) and share its failure
policy.
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
    report = ScenarioReport(name, iterations)
    for i in range(iterations):
        problems = runner()
        if problems:
            report.failures.append((i, problems))
    return report


def scenario_names() -> list[str]:
    return sorted(_SCENARIOS)


def _run_pair(a, b) -> list[str]:
    errors: list = []
    join_workers([start_worker(errors, a), start_worker(errors, b)], seconds_cap=30)
    return [repr(exc) for exc in errors]


def _insert_vs_trim() -> list[str]:
    """An insert snapshots the parameters, then a delete empties everything
    outside child 0 and tries to trim the root.  The guard lock must hold the
    trim off until the insert has pinned the root, and the trim's re-check
    must then see the insert's bit and abort."""
    in_window = threading.Event()
    armed = [False]

    def hooks(point):
        if point == "insert-snapshot" and armed[0]:
            armed[0] = False
            in_window.set()
            # parked holding the guard read lock: give the trim time to block
            time.sleep(0.0005)

    array = DcvebArray(branching=64, hooks=hooks)
    array.insert(3, "keep")
    array.insert(70, "evict")  # forces height 2; root occupies children {0, 1}
    armed[0] = True

    def inserter():
        array.insert(130, "landed")  # root child 2

    def deleter():
        in_window.wait(5)
        array.delete(70)  # leaves only child 0 occupied -> triggers the trim

    problems = _run_pair(inserter, deleter)
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


def _grow_vs_delete_residue() -> list[str]:
    """A delete snapshots the parameters, then an insert grows the tree by a
    level.  The delete can only propagate up to the old root, so the new top
    level is left claiming a now-empty subtree; the residue cleaner must
    strip that bit before the delete returns."""
    in_window = threading.Event()
    resume = threading.Event()
    armed = [False]

    def hooks(point):
        if point == "delete-snapshot" and armed[0]:
            armed[0] = False
            in_window.set()
            resume.wait(5)

    array = DcvebArray(branching=64, hooks=hooks)
    array.insert(5, "victim")
    armed[0] = True

    def deleter():
        array.delete(5)

    def grower():
        in_window.wait(5)
        array.insert(70, "grown")  # height 1 -> 2; old root becomes child 0
        resume.set()

    problems = _run_pair(deleter, grower)
    if array.get(5) is not None:
        problems.append("deleted key still visible")
    entry = array.get(70)
    if entry is None or entry.value != "grown":
        problems.append("growth insert lost")
    report = quiescent_walk(array)
    if report.violations:
        problems.append("walk violations: %r" % (report.violations,))
    return problems


def _two_inserters_one_parent() -> list[str]:
    """Two inserts race to materialize one shared parent and then store
    sibling entries in it; the slot CAS and the summary CAS loop must keep
    both."""
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
        summary = parent.summary.load()
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
