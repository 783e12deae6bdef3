"""Scripted race reproductions and stress workloads.

The scripted scenarios drive two threads through the exact interleavings the
design has to survive: an insert caught between snapshotting the published
parameters and locking the root while a trim tries to pop that root, and a
delete whose tree grows underneath it mid-flight, leaving stale occupancy
bits for the residue cleaner.  Test hooks compiled into the array (no-ops by
default) provide the pause points.
"""

from __future__ import annotations

import random
import sys
import threading
import time
from dataclasses import dataclass, field

from .core import DcvebArray
from .walker import WalkReport, quiescent_walk


class DeadlockSuspectedError(RuntimeError):
    """Workers failed to finish within the configured cap."""


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

    def guarded(fn):
        def run():
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - surfaced to the report
                errors.append(repr(exc))
        return run

    threads = [threading.Thread(target=guarded(a)), threading.Thread(target=guarded(b))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
        if t.is_alive():
            raise DeadlockSuspectedError("scenario thread did not finish")
    return errors


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


@dataclass
class StressConfig:
    getters: int = 0
    inserters: int = 0
    removers: int = 0
    successors: int = 0
    ops_per_thread: int = 1000
    key_range: int = 1024
    seconds_cap: float = 120.0
    seed: int = 0
    branching: int = 64


_GROUP_IDS = {"getter": 1, "inserter": 2, "remover": 3, "successor": 4,
              "querier": 5, "churner": 6}


def _thread_seed(seed: int, group: str, index: int) -> int:
    return seed * 1_000_003 + _GROUP_IDS[group] * 131_071 + index


def stress(config: StressConfig, array: DcvebArray | None = None) -> WalkReport:
    """Run the four fixed-work thread groups to completion, then walk.

    Every thread performs exactly ``ops_per_thread`` calls of its group's
    operation on uniformly random keys.  A thread still alive when the cap
    expires is treated as a suspected deadlock.
    """
    if array is None:
        array = DcvebArray(branching=config.branching)
    errors: list = []

    def worker(group: str, index: int):
        rng = random.Random(_thread_seed(config.seed, group, index))
        randrange = rng.randrange
        m = config.key_range
        z = config.ops_per_thread
        try:
            if group == "getter":
                op = array.get
                for _ in range(z):
                    op(randrange(m))
            elif group == "inserter":
                op = array.insert
                for _ in range(z):
                    key = randrange(m)
                    op(key, key)
            elif group == "remover":
                op = array.delete
                for _ in range(z):
                    op(randrange(m))
            else:
                op = array.successor
                for _ in range(z):
                    op(randrange(m))
        except BaseException as exc:  # noqa: BLE001 - surfaced after the join
            errors.append(repr(exc))

    threads = []
    for group, count in (
        ("getter", config.getters),
        ("inserter", config.inserters),
        ("remover", config.removers),
        ("successor", config.successors),
    ):
        for i in range(count):
            threads.append(threading.Thread(target=worker, args=(group, i)))
    deadline = time.monotonic() + config.seconds_cap
    for t in threads:
        t.start()
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            raise DeadlockSuspectedError(
                "stress worker still running after %.0fs" % config.seconds_cap
            )
    if errors:
        raise RuntimeError("stress worker failed: %s" % "; ".join(errors))
    return quiescent_walk(array)


def successor_liveness_run(total_queries: int = 100_000, query_threads: int = 4,
                           churn_threads: int = 4, key_span: int = 4096,
                           seed: int = 0, branching: int = 64) -> int:
    """Race ceiling queries against insert/delete churn below a pinned key.

    The largest key in the span is inserted once and never deleted, so every
    query at or below it has a qualifying entry present for the whole call
    and must not come back empty.  Returns the number of empty results.
    """
    array = DcvebArray(branching=branching)
    sentinel = key_span - 1
    array.insert(sentinel, "pinned")
    stop = threading.Event()
    none_count = [0]
    count_lock = threading.Lock()
    per_thread = total_queries // query_threads

    def querier(index: int):
        rng = random.Random(_thread_seed(seed, "querier", index))
        randrange = rng.randrange
        misses = 0
        for _ in range(per_thread):
            if array.successor(randrange(sentinel + 1)) is None:
                misses += 1
        if misses:
            with count_lock:
                none_count[0] += misses

    def churner(index: int):
        rng = random.Random(_thread_seed(seed, "churner", index))
        randrange = rng.randrange
        while not stop.is_set():
            key = randrange(sentinel)
            array.insert(key, key)
            array.delete(key)

    queriers = [threading.Thread(target=querier, args=(i,)) for i in range(query_threads)]
    churners = [threading.Thread(target=churner, args=(i,)) for i in range(churn_threads)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        for t in churners + queriers:
            t.start()
        for t in queriers:
            t.join()
        stop.set()
        for t in churners:
            t.join()
    finally:
        sys.setswitchinterval(old_interval)
    return none_count[0]
