"""Concurrent history recording and linearizability checking.

A history is a flat list of invoke/respond events stamped by one global
monotonic tick counter.  The checker searches for a total order of the
operations that keeps each thread's ops in program order, respects real-time
precedence (op A precedes op B when A responded before B was invoked; a
respond and an invoke that share a tick overlap) and replays through the
sequential oracle reproducing every recorded result.  The search holds one
cursor per thread into its program-ordered ops.  Each step admits the head
ops invoked no later than the horizon, the earliest response among the heads,
which is the earliest among all pending ops (Wing & Gong's minimal-response
rule), so a step costs O(threads).  The search memoizes failed (per-thread
cursors, oracle state) frontiers, which keeps small histories cheap even when
every operation overlaps every other.  ``replay_witness`` states the rules
literally, pair by pair, and the all-permutations reference check
``check_linearizable_naive`` is ``replay_witness`` over every order.
"""

from __future__ import annotations

import random
import sys
import threading
from itertools import permutations
from typing import Any, NamedTuple, Optional

from .bench import JOIN_SECONDS_CAP, join_workers, start_worker
from .core import DcvebArray
from .oracle import EMPTY_STATE, apply_op


class Event(NamedTuple):
    tick: int
    thread: int
    kind: str  # "invoke" | "respond"
    op: tuple
    result: Any


class MalformedHistoryError(ValueError):
    pass


class CheckResult(NamedTuple):
    ok: bool
    witness: Optional[list]  # operation order (list of _OpRecord) when ok
    counterexample: Optional[list]  # deepest schedulable event prefix when not


class _OpRecord(NamedTuple):
    index: int
    thread: int
    op: tuple
    result: Any
    invoked: int
    responded: int


_MUTATOR_WEIGHTS = (
    ("insert", 30),
    ("delete", 25),
    ("get", 20),
    ("successor", 15),
    ("predecessor", 10),
)


def _random_op(rng: random.Random, key_range: int, value_counter) -> tuple:
    pick = rng.randrange(100)
    acc = 0
    for name, weight in _MUTATOR_WEIGHTS:
        acc += weight
        if pick < acc:
            key = rng.randrange(key_range)
            if name == "insert":
                return ("insert", key, next(value_counter))
            return (name, key)
    raise AssertionError("weights must cover [0, 100)")


def record_history(thread_count: int, ops_per_thread: int, key_range: int,
                   seed: int) -> list[Event]:
    """Run randomized operations on a fresh array, logging every event.

    The GIL switch interval is shrunk for the duration so that even very
    short per-thread programs actually interleave.  The threads start with
    ``bench.start_worker`` and share the failure policy of
    ``bench.join_workers``: an operation that raises fails the call with
    ``RuntimeError``, and a thread still running after
    ``bench.JOIN_SECONDS_CAP`` seconds with ``DeadlockSuspectedError``,
    instead of returning a truncated history.
    """
    array = DcvebArray(branching=4, key_bits=16)
    events: list[Event] = []
    events_lock = threading.Lock()
    barrier = threading.Barrier(thread_count)
    value_counter = iter(range(1, 1 << 30))

    plans = []
    for t in range(thread_count):
        rng = random.Random(seed * 1_000_003 + t)
        plans.append([_random_op(rng, key_range, value_counter) for _ in range(ops_per_thread)])

    # an event's tick is its 1-based position: every append happens under
    # ``events_lock``, so the list is already in tick order
    def run(thread_id: int) -> None:
        barrier.wait()
        for op in plans[thread_id]:
            with events_lock:
                events.append(Event(len(events) + 1, thread_id, "invoke", op, None))
            result = getattr(array, op[0])(*op[1:])
            with events_lock:
                events.append(Event(len(events) + 1, thread_id, "respond", op, result))

    errors: list = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [start_worker(errors, run, t) for t in range(thread_count)]
        join_workers(threads, errors, JOIN_SECONDS_CAP)
    finally:
        sys.setswitchinterval(old_interval)
    return events


def pair_events(events: list[Event]) -> list[_OpRecord]:
    """Match invoke/respond pairs per thread; reject malformed histories."""
    pending: dict[int, Event] = {}
    ops: list[_OpRecord] = []
    last_tick = 0
    for event in events:
        if event.tick < last_tick:
            raise MalformedHistoryError("ticks must be non-decreasing")
        last_tick = event.tick
        if event.kind == "invoke":
            if event.thread in pending:
                raise MalformedHistoryError(
                    "thread %d invoked twice without responding" % event.thread
                )
            pending[event.thread] = event
        elif event.kind == "respond":
            invoke = pending.pop(event.thread, None)
            if invoke is None or invoke.op != event.op:
                raise MalformedHistoryError(
                    "thread %d responded without matching invoke" % event.thread
                )
            ops.append(
                _OpRecord(len(ops), event.thread, event.op, event.result,
                          invoke.tick, event.tick)
            )
        else:
            raise MalformedHistoryError("unknown event kind %r" % (event.kind,))
    if pending:
        raise MalformedHistoryError(
            "history has pending operations on threads %s" % sorted(pending)
        )
    return ops


def check_linearizable(events: list[Event]) -> CheckResult:
    """Exhaustive linearization search against the oracle."""
    ops = pair_events(events)
    threads = dict.fromkeys(op.thread for op in ops)
    lanes = [[op for op in ops if op.thread == t] for t in threads]  # program order
    failed: set = set()
    best_prefix: list = []

    def search(cursors: tuple, state: tuple, order: list) -> bool:
        nonlocal best_prefix
        if len(order) == len(ops):
            return True
        key = (cursors, state)
        if key in failed:
            return False
        if len(order) > len(best_prefix):
            best_prefix = list(order)
        heads = sorted((lane[c], t) for t, (lane, c) in enumerate(zip(lanes, cursors))
                       if c < len(lane))
        # an op invoked after some pending op responded must wait for it; a
        # lane's responses rise, so the earliest pending response is a head's
        horizon = min(op.responded for op, _ in heads)
        for op, t in heads:
            if op.invoked > horizon:
                continue
            result, next_state = apply_op(state, op.op)
            if result != op.result:
                continue
            order.append(op)
            if search(cursors[:t] + (cursors[t] + 1,) + cursors[t + 1:], next_state, order):
                return True
            order.pop()
        failed.add(key)
        return False

    witness: list = []
    if search((0,) * len(lanes), EMPTY_STATE, witness):
        return CheckResult(True, witness, None)
    ticks = {t for op in best_prefix for t in (op.invoked, op.responded)}
    counterexample = [e for e in events if e.tick in ticks] or list(events)
    return CheckResult(False, None, counterexample)


def replay_witness(witness: list) -> bool:
    """Re-verify a witness order independently of the search."""
    state = EMPTY_STATE
    for op in witness:
        result, state = apply_op(state, op.op)
        if result != op.result:
            return False
    # real-time order: an op responding before another's invoke must precede
    # it; program order: a thread's ops keep their order even on a shared tick
    for i, a in enumerate(witness):
        for b in witness[i + 1:]:
            if b.responded < a.invoked or (b.thread == a.thread and b.index < a.index):
                return False
    return True


def check_linearizable_naive(events: list[Event]) -> bool:
    """All-permutations reference check; exponential, small histories only."""
    ops = pair_events(events)
    if len(ops) > 8:
        raise ValueError("naive check limited to 8 operations")
    return any(replay_witness(list(order)) for order in permutations(ops))


def format_history(events: list[Event]) -> list[str]:
    """One event per line: ``tick thread kind op args result``."""
    lines = []
    for e in events:
        args = " ".join(str(a) for a in e.op[1:])
        result = "-" if e.kind == "invoke" else repr(e.result)
        lines.append(
            "%d %d %s %s%s %s" % (e.tick, e.thread, e.kind, e.op[0],
                                  (" " + args) if args else "", result)
        )
    return lines


def write_history(events: list[Event], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in format_history(events):
            fh.write(line + "\n")
