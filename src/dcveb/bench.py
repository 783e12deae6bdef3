"""Fixed-work benchmark runner.

Four thread groups (getters, inserters, removers, successor searchers) each
perform the same number of calls against a pluggable dynamic-set adapter.
Each thread's wall time is measured, and so is each repeat's, from the first
worker's start to the last join; aggregate throughput is all calls over the
repeats' wall time.  Key sequences are derived from (seed, group, thread
index) only, so every adapter sees identical work.
The stress tests run ``run_workload`` on a ``DcvebArray`` and then walk
the tree.  ``successor_liveness_run`` and ``history.record_history`` drive
their own threads on ``start_worker`` and ``join_workers``, so each fails
the same way; perfbench's ``clients.run_phase`` drives its own too.

Run as a CLI::

    dcveb-bench --getters 4 --inserters 4 --removers 4 --successors 4 \
        --ops 100000 --key-range 100000 --structure dcveb --csv out.csv
"""

from __future__ import annotations

import argparse
import random
import sys
import threading
import time
from dataclasses import dataclass, field
from statistics import mean
from typing import Optional

from .core import DcvebArray
from .oracle import OracleMap

_GROUPS = ("getter", "inserter", "remover", "successor")
# "querier" and "churner" are the thread groups of successor_liveness_run.
_GROUP_IDS = {"getter": 1, "inserter": 2, "remover": 3, "successor": 4,
              "querier": 5, "churner": 6}


# seconds a liveness run's or a recorded history's threads get, per join,
# before a hang counts as a deadlock
JOIN_SECONDS_CAP = 60.0


class DeadlockSuspectedError(RuntimeError):
    """Workers failed to finish within the configured cap."""


def thread_seed(seed: int, group: str, index: int) -> int:
    """The random seed of one worker thread's key stream."""
    return seed * 1_000_003 + _GROUP_IDS[group] * 131_071 + index


def start_worker(errors: list, fn, *args) -> threading.Thread:
    """Start ``fn(*args)`` on a thread that appends any exception it raises
    to ``errors``.  The thread is a daemon: one stuck past a suspected
    deadlock must not hold up process exit."""
    def run():
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - re-raised by join_workers
            errors.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def join_workers(threads, errors=(), seconds_cap: Optional[float] = None) -> None:
    """The driver's failure policy: a thread still alive ``seconds_cap``
    seconds into the join raises ``DeadlockSuspectedError``; after that any
    exception in ``errors`` is re-raised as ``RuntimeError``."""
    deadline = None if seconds_cap is None else time.monotonic() + seconds_cap
    for t in threads:
        t.join(None if deadline is None else max(0.0, deadline - time.monotonic()))
        if t.is_alive():
            raise DeadlockSuspectedError("worker still running after %gs" % seconds_cap)
    if errors:
        raise RuntimeError("worker failed: %s" % "; ".join(map(repr, errors))) from errors[0]


class LockedOracle:
    """The sorted-map oracle behind one global lock: the globally
    synchronized sequential baseline the concurrent structure is compared
    against."""

    def __init__(self):
        self._map = OracleMap()
        self._lock = threading.Lock()

    def insert(self, key, value):
        with self._lock:
            self._map.insert(key, value)

    def delete(self, key):
        with self._lock:
            self._map.delete(key)

    def get(self, key):
        with self._lock:
            return self._map.get(key)

    def successor(self, key):
        with self._lock:
            return self._map.successor(key)

    def predecessor(self, key):
        with self._lock:
            return self._map.predecessor(key)


_ADAPTERS = {
    "dcveb": DcvebArray,
    "locked-oracle": LockedOracle,
}


def adapters() -> list[str]:
    return sorted(_ADAPTERS)


@dataclass
class WorkloadConfig:
    getters: int = 0
    inserters: int = 0
    removers: int = 0
    successors: int = 0
    ops: int = 1000
    key_range: int = 1000
    structure: str = "dcveb"
    seed: int = 0
    repeats: int = 1
    # seconds each repeat's threads may run before a deadlock is suspected;
    # None waits for as long as they take
    seconds_cap: Optional[float] = None

    def validate(self) -> None:
        counts = (self.getters, self.inserters, self.removers, self.successors)
        if any(c < 0 for c in counts) or sum(counts) == 0:
            raise ValueError("need at least one thread across the four groups")
        if self.ops < 1:
            raise ValueError("ops must be >= 1")
        if self.key_range < 1:
            raise ValueError("key_range must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.seconds_cap is not None and not self.seconds_cap > 0:
            raise ValueError("seconds_cap must be > 0")
        if self.structure not in _ADAPTERS:
            raise ValueError(
                "unknown structure %r (known: %s)"
                % (self.structure, ", ".join(adapters()))
            )


@dataclass
class ThreadTiming:
    repeat: int
    group: str
    index: int
    millis: float


@dataclass
class RunResult:
    config: WorkloadConfig
    timings: list[ThreadTiming] = field(default_factory=list)
    # one per repeat: seconds from the first worker's start to the last join
    wall_seconds: list[float] = field(default_factory=list)

    @property
    def mean_millis(self) -> float:
        return mean(t.millis for t in self.timings)

    @property
    def aggregate_ops_per_s(self) -> float:
        """Calls made by all threads over all repeats, per second of wall time."""
        return len(self.timings) * self.config.ops / sum(self.wall_seconds)

    @property
    def per_group_mean_millis(self) -> dict[str, float]:
        out = {}
        for group in _GROUPS:
            samples = [t.millis for t in self.timings if t.group == group]
            if samples:
                out[group] = mean(samples)
        return out


def run_workload(config: WorkloadConfig, structure=None) -> RunResult:
    """Run the four fixed-work groups ``config.repeats`` times.

    Every thread makes exactly ``config.ops`` calls of its group's operation
    on keys drawn from its own seeded stream.  ``structure`` is used for
    every repeat when given; otherwise each repeat builds a fresh adapter
    named by ``config.structure``.  Failures follow ``join_workers``.
    """
    config.validate()
    result = RunResult(config)
    plan = [(group, i)
            for group, count in zip(_GROUPS, (config.getters, config.inserters,
                                              config.removers, config.successors))
            for i in range(count)]
    for repeat in range(config.repeats):
        target = _ADAPTERS[config.structure]() if structure is None else structure
        ops = {"getter": target.get, "inserter": target.insert,
               "remover": target.delete, "successor": target.successor}
        barrier = threading.Barrier(len(plan))
        timings = [None] * len(plan)
        starts = [None] * len(plan)

        def worker(slot: int, group: str, index: int):
            randrange = random.Random(thread_seed(config.seed, group, index)).randrange
            m = config.key_range
            op = ops[group]
            barrier.wait()
            started = starts[slot] = time.perf_counter()
            if group == "inserter":
                for _ in range(config.ops):
                    key = randrange(m)
                    op(key, key)
            else:
                for _ in range(config.ops):
                    op(randrange(m))
            elapsed = (time.perf_counter() - started) * 1000.0
            timings[slot] = ThreadTiming(repeat, group, index, elapsed)

        errors: list = []
        threads = [start_worker(errors, worker, slot, group, index)
                   for slot, (group, index) in enumerate(plan)]
        join_workers(threads, errors, config.seconds_cap)
        result.wall_seconds.append(time.perf_counter() - min(starts))
        result.timings.extend(timings)
    return result


def successor_liveness_run(total_queries: int = 100_000, query_threads: int = 4,
                           churn_threads: int = 4, key_span: int = 4096,
                           seed: int = 0) -> int:
    """Race ceiling and floor queries against churn between pinned keys.

    The span's first and last keys are inserted once and never deleted, and
    churn keys lie strictly between them, so every query in the span has an
    answer present for the whole call either way.  A querier makes its share
    of ``total_queries`` successor queries and a predecessor query on each
    key; the run returns how many of both came back empty.
    Failures follow ``join_workers``: a querier still running
    ``JOIN_SECONDS_CAP`` seconds into its join, or a churner that long after
    the queriers are done, raises ``DeadlockSuspectedError``, and a worker
    exception is re-raised as ``RuntimeError``.  A run in which a querier
    would make no query, or with no key between the pins, raises
    ``ValueError`` before any thread starts.
    """
    if query_threads < 1:
        raise ValueError("query_threads must be >= 1")
    if total_queries < query_threads:
        raise ValueError("total_queries must be >= query_threads")
    if churn_threads < 0:
        raise ValueError("churn_threads must be >= 0")
    if key_span < 3:
        raise ValueError("key_span must be >= 3: churn keys lie between the pins")
    array = DcvebArray()
    last = key_span - 1
    array.insert(0, "pinned")
    array.insert(last, "pinned")
    stop = threading.Event()
    none_count = [0]
    count_lock = threading.Lock()
    per_thread = total_queries // query_threads

    def querier(index: int):
        randrange = random.Random(thread_seed(seed, "querier", index)).randrange
        misses = 0
        for _ in range(per_thread):
            key = randrange(last + 1)
            misses += (array.successor(key) is None) + (array.predecessor(key) is None)
        if misses:
            with count_lock:
                none_count[0] += misses

    def churner(index: int):
        randrange = random.Random(thread_seed(seed, "churner", index)).randrange
        while not stop.is_set():
            key = randrange(1, last)
            array.insert(key, key)
            array.delete(key)

    errors: list = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        churners = [start_worker(errors, churner, i) for i in range(churn_threads)]
        queriers = [start_worker(errors, querier, i) for i in range(query_threads)]
        join_workers(queriers, (), JOIN_SECONDS_CAP)
    finally:
        stop.set()  # the churners exit even when the queriers hang or fail
        sys.setswitchinterval(old_interval)
    join_workers(churners + queriers, errors, JOIN_SECONDS_CAP)
    return none_count[0]


CSV_HEADER = "structure,g,i,r,s,z,m,seed,repeat,group,thread,millis"


def emit_csv(results: list[RunResult], path) -> None:
    """Deterministic row order: (structure, repeat, group, thread)."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(CSV_HEADER + "\n")
            for result in results:
                cfg = result.config
                ordered = sorted(
                    result.timings,
                    key=lambda t: (t.repeat, _GROUP_IDS[t.group], t.index),
                )
                for t in ordered:
                    fh.write(
                        "%s,%d,%d,%d,%d,%d,%d,%d,%d,%s,%d,%.3f\n"
                        % (cfg.structure, cfg.getters, cfg.inserters,
                           cfg.removers, cfg.successors, cfg.ops, cfg.key_range,
                           cfg.seed, t.repeat, t.group, t.index, t.millis)
                    )
    except OSError as exc:
        raise OSError("cannot write CSV to %s: %s" % (path, exc)) from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dcveb-bench",
        description="Fixed-work concurrent ordered-map benchmark",
    )
    parser.add_argument("--getters", type=int, default=0)
    parser.add_argument("--inserters", type=int, default=0)
    parser.add_argument("--removers", type=int, default=0)
    parser.add_argument("--successors", type=int, default=0)
    parser.add_argument("--ops", type=int, default=1000,
                        help="calls per thread")
    parser.add_argument("--key-range", type=int, default=1000,
                        help="keys drawn uniformly from [0, m)")
    parser.add_argument("--structure", default="dcveb",
                        help="adapter name (%s)" % ", ".join(adapters()))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--csv", default=None, help="write per-thread rows here")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = WorkloadConfig(
        getters=args.getters, inserters=args.inserters, removers=args.removers,
        successors=args.successors, ops=args.ops, key_range=args.key_range,
        structure=args.structure, seed=args.seed, repeats=args.repeats,
    )
    try:
        config.validate()
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    try:
        result = run_workload(config)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("run failed: %s" % exc, file=sys.stderr)
        return 1
    print("structure=%s threads g=%d i=%d r=%d s=%d ops=%d key-range=%d repeats=%d"
          % (config.structure, config.getters, config.inserters, config.removers,
             config.successors, config.ops, config.key_range, config.repeats))
    print("aggregate throughput: %.0f ops/s over wall time" % result.aggregate_ops_per_s)
    print("mean per-thread time: %.2f ms" % result.mean_millis)
    for group, value in sorted(result.per_group_mean_millis.items(),
                               key=lambda kv: _GROUP_IDS[kv[0]]):
        print("  %-9s mean %.2f ms" % (group, value))
    if args.csv:
        try:
            emit_csv([result], args.csv)
        except OSError as exc:
            print(str(exc), file=sys.stderr)
            return 1
        print("wrote %s" % args.csv)
    return 0


if __name__ == "__main__":
    sys.exit(main())
