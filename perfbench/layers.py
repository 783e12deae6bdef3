"""Per-layer tracing of dcveb from outside the program.

The traced run replaces, for the length of one phase, the public entry points
of each layer with wrappers that record spans:

* ``rwlock``: every method of ``FairRWLock``;
* ``bitops``: every method of ``AtomicWord``, and ``atomic_set_child``,
  ``min_child_above`` and ``max_child_below`` as bound in ``dcveb.core``;
* ``core``: the client's call into ``DcvebArray`` (the op span),
  ``Node.cas_child`` and ``Node`` as bound in ``dcveb.core`` (allocations);
* ``gc``: a ``gc.callbacks`` hook.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing span in the same thread and ``op`` the index of the op span it
belongs to, -1 for neither.  Spans live in per-thread arrays until the run
ends.  A span's self time is its duration minus the part of it that its
children cover; self times include the tracer's own bookkeeping around each
child, so they are comparable between commits, not with untraced latencies.
"""

from __future__ import annotations

import gc
import json
import threading
import time
from array import array

from workloads import DELETE, INSERT, OP_NAMES, PREDECESSOR, SUCCESSOR

NAMES = tuple("core." + op for op in OP_NAMES) + (
    "rwlock.acquire_read", "rwlock.release_read",
    "rwlock.acquire_write", "rwlock.release_write",
    "bitops.AtomicWord.load", "bitops.AtomicWord.store",
    "bitops.AtomicWord.compare_and_set",
    "core.Node.cas_child", "core.Node",
    "bitops.atomic_set_child", "bitops.min_child_above", "bitops.max_child_below",
    "gc.collect",
)
_ID = {name: i for i, name in enumerate(NAMES)}
ACQUIRE_READ = _ID["rwlock.acquire_read"]
ACQUIRE_WRITE = _ID["rwlock.acquire_write"]
CAS = _ID["bitops.AtomicWord.compare_and_set"]
CAS_CHILD = _ID["core.Node.cas_child"]
NODE = _ID["core.Node"]
SET_CHILD = _ID["bitops.atomic_set_child"]
MIN_ABOVE = _ID["bitops.min_child_above"]
MAX_BELOW = _ID["bitops.max_child_below"]
GC_SPAN = _ID["gc.collect"]

# an acquisition whose self time exceeds this waited for another holder
SLOW_ACQUIRE_S = 20e-6


class Spans:
    """One thread's spans, in start order; ``flag`` marks a failed CAS, a lost
    ``cas_child`` race or, on a gc span, the generation collected."""

    __slots__ = ("name", "start", "end", "parent", "op", "flag", "stack", "current_op")

    def __init__(self):
        self.name = array("B")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.flag = array("B")
        self.stack = [-1]
        self.current_op = -1

    def __len__(self) -> int:
        return len(self.name)

    def enter(self, nid: int, clock=time.perf_counter) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.current_op)
        self.flag.append(0)
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(clock())
        return i

    def leave(self, i: int, clock=time.perf_counter) -> None:
        self.end[i] = clock()
        self.stack.pop()


def self_times(start, end, parent) -> array:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span.  Spans may come in any order."""
    n = len(start)
    cover = array("d", bytes(8 * n))
    reach = array("d", start)
    for j in sorted(range(n), key=start.__getitem__):
        p = parent[j]
        if p < 0:
            continue
        lo = max(start[j], reach[p])
        hi = min(end[j], end[p])
        if hi > lo:
            cover[p] += hi - lo
            reach[p] = hi
    return array("d", (end[j] - start[j] - cover[j] for j in range(n)))


class GcWatch:
    """``gc.callbacks`` hook: keeps every collection as (generation, start,
    end), and opens a span for it in a thread that is tracing."""

    def __init__(self, local):
        self._local = local
        self._open = {}
        self.events = []

    def __call__(self, phase, info):
        now = time.perf_counter()
        ident = threading.get_ident()
        rec = getattr(self._local, "rec", None)
        if phase == "start":
            span = rec.enter(GC_SPAN) if rec is not None else -1
            if span >= 0:
                rec.flag[span] = info["generation"]
            self._open[ident] = (now, span)
            return
        began, span = self._open.pop(ident, (now, -1))
        if span >= 0 and rec is not None:
            rec.leave(span)
        self.events.append((info["generation"], began, now))

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


class Tracer:
    """Installs and removes the span wrappers on the imported ``dcveb``."""

    def __init__(self, dcveb):
        bitops, core, rwlock = dcveb.bitops, dcveb.core, dcveb.rwlock
        self.local = threading.local()
        self.recorders = []
        self._lock = threading.Lock()
        self._patches = [
            (rwlock.FairRWLock, "acquire_read", "rwlock.acquire_read", 1),
            (rwlock.FairRWLock, "release_read", "rwlock.release_read", 1),
            (rwlock.FairRWLock, "acquire_write", "rwlock.acquire_write", 1),
            (rwlock.FairRWLock, "release_write", "rwlock.release_write", 1),
            (bitops.AtomicWord, "load", "bitops.AtomicWord.load", 1),
            (bitops.AtomicWord, "store", "bitops.AtomicWord.store", 2),
            (bitops.AtomicWord, "compare_and_set", "bitops.AtomicWord.compare_and_set", 3),
            (core.Node, "cas_child", "core.Node.cas_child", 3),
            (core, "Node", "core.Node", 2),
            (core, "atomic_set_child", "bitops.atomic_set_child", 3),
            (core, "min_child_above", "bitops.min_child_above", 3),
            (core, "max_child_below", "bitops.max_child_below", 3),
        ]
        self._saved = []

    def _recorder(self) -> Spans:
        rec = Spans()
        self.local.rec = rec
        with self._lock:
            self.recorders.append(rec)
        return rec

    def install(self) -> None:
        for owner, attr, span, arity in self._patches:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(_ID[span], original, arity))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, nid: int, fn, arity: int):
        local = self.local
        # a CAS that returned False, or a cas_child that returned another
        # node than the candidate, lost its race
        lost = {CAS: lambda result, last: not result,
                CAS_CHILD: lambda result, last: result is not last}.get(nid)
        if arity == 1:
            def traced(a):
                rec = getattr(local, "rec", None)
                if rec is None:
                    return fn(a)
                i = rec.enter(nid)
                try:
                    return fn(a)
                finally:
                    rec.leave(i)
        elif arity == 2:
            def traced(a, b):
                rec = getattr(local, "rec", None)
                if rec is None:
                    return fn(a, b)
                i = rec.enter(nid)
                try:
                    return fn(a, b)
                finally:
                    rec.leave(i)
        else:
            def traced(a, b, c):
                rec = getattr(local, "rec", None)
                if rec is None:
                    return fn(a, b, c)
                i = rec.enter(nid)
                try:
                    result = fn(a, b, c)
                    if lost is not None and lost(result, c):
                        rec.flag[i] = 1
                    return result
                finally:
                    rec.leave(i)
        return traced

    def wrap_op(self, code: int, fn):
        """Op-span wrapper for the client's call ``fn`` (see ``run_phase``)."""
        local = self.local
        recorder = self._recorder

        def begin():
            rec = getattr(local, "rec", None)
            if rec is None:
                rec = recorder()
            rec.current_op = len(rec)
            return rec, rec.enter(code)

        if code == INSERT:
            def traced(key, value):
                rec, i = begin()
                try:
                    return fn(key, value)
                finally:
                    rec.leave(i)
                    rec.current_op = -1
        else:
            def traced(key):
                rec, i = begin()
                try:
                    return fn(key)
                finally:
                    rec.leave(i)
                    rec.current_op = -1
        return traced

    def write(self, path: str) -> int:
        """Write every span: one JSON header line, then per thread the raw
        ``name, start, end, parent, op, flag`` arrays.  Returns the span count."""
        header = {
            "names": NAMES,
            "fields": [["name", "B"], ["start_s", "d"], ["end_s", "d"],
                       ["parent", "i"], ["op", "i"], ["flag", "B"]],
            "threads": [len(rec) for rec in self.recorders],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for rec in self.recorders:
                for arr in (rec.name, rec.start, rec.end, rec.parent, rec.op, rec.flag):
                    arr.tofile(fh)
        return sum(len(rec) for rec in self.recorders)


def span_metrics(recorders) -> dict:
    """Per-layer figures from the traced phase's spans."""
    ops = [0] * len(OP_NAMES)
    op_self = [[] for _ in OP_NAMES]
    op_time = 0.0
    count = {}
    acquires = slow = 0
    slow_time = 0.0
    acquire_time_in_writes = 0.0
    cas = cas_failed = cas_child = cas_child_lost = 0
    for rec in recorders:
        selfs = self_times(rec.start, rec.end, rec.parent)
        names, op_of, flags = rec.name, rec.op, rec.flag
        for j in range(len(names)):
            nid = names[j]
            if nid < len(OP_NAMES):
                ops[nid] += 1
                op_self[nid].append(selfs[j])
                op_time += rec.end[j] - rec.start[j]
                continue
            o = op_of[j]
            code = names[o] if o >= 0 else -1
            count[nid, code] = count.get((nid, code), 0) + 1
            if nid == ACQUIRE_READ or nid == ACQUIRE_WRITE:
                acquires += 1
                if code == INSERT or code == DELETE:
                    acquire_time_in_writes += selfs[j]
                if selfs[j] > SLOW_ACQUIRE_S:
                    slow += 1
                    slow_time += selfs[j]
            elif nid == CAS:
                cas += 1
                cas_failed += flags[j]
            elif nid == CAS_CHILD:
                cas_child += 1
                cas_child_lost += flags[j]

    def per(nid, code):
        return count.get((nid, code), 0) / ops[code] if ops[code] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}
    for code, name in enumerate(OP_NAMES):
        samples = sorted(op_self[code])
        value = samples[(len(samples) - 1) // 2] * 1e6 if samples else 0.0
        out["core.%s_self_us" % name] = (value, "us", len(samples))
    n_ins = ops[INSERT]
    writes = ops[INSERT] + ops[DELETE]
    nodes = sum(v for (nid, _), v in count.items() if nid == NODE)
    out.update({
        "core.nodes_allocated": (nodes, "count", sum(ops)),
        "core.nodes_allocated_per_insert": (per(NODE, INSERT), "count", n_ins),
        "core.cas_child_lost_ratio": (ratio(cas_child_lost, cas_child), "ratio", cas_child),
        "rwlock.acquires": (acquires, "count", sum(ops)),
        "rwlock.read_acquires_per_insert": (per(ACQUIRE_READ, INSERT), "count", n_ins),
        "rwlock.write_acquires_per_delete": (per(ACQUIRE_WRITE, DELETE), "count",
                                             ops[DELETE]),
        "rwlock.acquire_us_per_write_op": (ratio(acquire_time_in_writes, writes) * 1e6,
                                           "us", writes),
        "rwlock.slow_acquire_ratio": (ratio(slow, acquires), "ratio", acquires),
        "rwlock.wait_share": (ratio(slow_time, op_time), "ratio", sum(ops)),
        "bitops.cas_per_insert": (per(CAS, INSERT), "count", n_ins),
        "bitops.cas_fail_ratio": (ratio(cas_failed, cas), "ratio", cas),
        "bitops.atomic_set_child_per_insert": (per(SET_CHILD, INSERT), "count", n_ins),
        "bitops.scan_steps_per_successor": (per(MIN_ABOVE, SUCCESSOR), "count",
                                            ops[SUCCESSOR]),
        "bitops.scan_steps_per_predecessor": (per(MAX_BELOW, PREDECESSOR), "count",
                                              ops[PREDECESSOR]),
    })
    return out


def gc_metrics(events, wall: float, calls: int) -> dict:
    """GC figures over a phase of ``wall`` seconds that completed ``calls``."""
    pauses = [end - start for _, start, end in events]
    gen2 = sum(1 for gen, _, _ in events if gen == 2)
    return {
        "gc.pause_share": (sum(pauses) / wall, "ratio", len(pauses)),
        "gc.gen2_collections": (gen2 * 1e5 / calls if calls else 0.0, "per_100k_ops", gen2),
        "gc.max_pause_ms": (max(pauses, default=0.0) * 1e3, "ms", len(pauses)),
    }
