"""Closed-loop client threads.

Each client walks its op list and sends its next call only when the previous
one has returned.  Only the call itself sits between the two clock reads; the
answer check, the latency append and the loop bookkeeping run outside that
window.

A calibrated phase (one client only; ``calibrate.py`` says why) runs a
calibration block after every ``SLICE_OPS`` calls, and starts and ends its
measured part on slice boundaries, the start after a full collection, untimed,
so that the GC pauses a run pays do not depend on where in the collector's
cycle the warm-up happened to end.  Its figures are scaled to the reference
host speed slice by slice.
"""

from __future__ import annotations

import gc
import threading
import time
from array import array
from dataclasses import dataclass, field
from functools import cached_property

from calibrate import factors, timed_block
from workloads import GET, INSERT, OP_NAMES, PREDECESSOR, SUCCESSOR, OpList

# calls whose answer is wrong or that raise; the first few are kept for the report
_KEPT_ERRORS = 5
# calls between two calibration blocks of a calibrated phase
SLICE_OPS = 256


@dataclass
class Cursor:
    """Where a client stands in its op list; it carries over between phases."""

    ops: OpList
    expected: list | None
    pos: int = 0

    @property
    def exhausted(self) -> bool:
        return not self.ops.cyclic and self.pos == len(self.ops)


@dataclass
class ClientResult:
    latencies: list
    done: int
    failed: int
    # (time, calls done, samples per op code) when the warm-up ended and at the end
    measured_from: tuple
    measured_to: tuple
    errors: list = field(default_factory=list)
    # calibrated phase: per slice (start, end, calls done, samples per op code)
    # and the calibration block time that followed it
    slices: list = field(default_factory=list)
    calibrations: list = field(default_factory=list)


@dataclass
class PhaseResult:
    clients: list

    @property
    def done(self) -> int:
        return sum(c.done for c in self.clients)

    @property
    def failed(self) -> int:
        return sum(c.failed for c in self.clients)

    @property
    def errors(self) -> list:
        return [e for c in self.clients for e in c.errors]

    @property
    def seconds(self) -> float:
        """Length of the measured part, from the first client's warm-up end to
        the last client's stop."""
        return (max(c.measured_to[0] for c in self.clients)
                - min(c.measured_from[0] for c in self.clients))

    @property
    def calls(self) -> int:
        """Calls completed in the measured part."""
        return sum(c.measured_to[1] - c.measured_from[1] for c in self.clients)

    @property
    def throughput(self) -> float:
        return self.calls / self.seconds

    @property
    def calibrated(self) -> bool:
        return len(self.clients) == 1 and bool(self.clients[0].slices)

    @cached_property
    def measured_slices(self) -> list:
        """(slice, factor) of every slice in the measured part of a calibrated
        phase."""
        client = self.clients[0]
        first = client.measured_from[1]
        return [(sl, f) for sl, f in zip(client.slices, factors(client.calibrations))
                if sl[2] > first]

    def busy_seconds(self, scaled: bool) -> float:
        """Time spent in program calls in the measured part, without the
        calibration blocks; ``scaled`` to the reference speed."""
        return sum((sl[1] - sl[0]) * (f if scaled else 1.0)
                   for sl, f in self.measured_slices)

    def calibrated_throughput(self, scaled: bool) -> float:
        return self.calls / self.busy_seconds(scaled)

    def latencies(self, code: int, scaled: bool = False) -> array:
        """Measured-part latency samples of op ``code``, in seconds; those of
        a calibrated phase ``scaled`` to the reference speed."""
        out = array("d")
        if scaled:
            samples = self.clients[0].latencies[code]
            lo = self.clients[0].measured_from[2][code]
            for sl, f in self.measured_slices:
                hi = sl[3][code]
                out.extend(x * f for x in samples[lo:hi])
                lo = hi
            return out
        for c in self.clients:
            out.extend(c.latencies[code][c.measured_from[2][code]:c.measured_to[2][code]])
        return out


def possible(code: int, key: int, answer) -> bool:
    """Could some state of a map holding only (k, k) entries give ``answer``?"""
    if code == GET:
        return answer is None or (answer.key == key and answer.value == key)
    if code == SUCCESSOR:
        return answer is None or (answer.key >= key and answer.value == answer.key)
    if code == PREDECESSOR:
        return answer is None or (answer.key <= key and answer.value == answer.key)
    return answer is None


def _client(fns, cursor: Cursor, warmup: float, seconds: float, barrier, results,
            slot, calibrate: bool) -> None:
    codes = cursor.ops.codes
    keys = cursor.ops.keys
    cyclic = cursor.ops.cyclic
    expected = cursor.expected
    n = len(codes)
    latencies = [array("d") for _ in OP_NAMES]
    add = [a.append for a in latencies]
    clock = time.perf_counter
    i = cursor.pos
    done = failed = 0
    errors = []
    slices = []
    calibrations = []
    left = SLICE_OPS
    barrier.wait()
    start = slice_start = clock()
    measure_at = start + warmup
    deadline = measure_at + seconds
    measured_from = (start, 0, [0] * len(OP_NAMES)) if warmup <= 0 else None
    while i < n:
        code = codes[i]
        key = keys[i]
        fn = fns[code]
        if code == INSERT:
            t0 = clock()
            try:
                answer = fn(key, key)
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed op
                answer = exc
            t1 = clock()
        else:
            t0 = clock()
            try:
                answer = fn(key)
            except Exception as exc:  # noqa: BLE001 - a raising call is a failed op
                answer = exc
            t1 = clock()
        add[code](t1 - t0)
        if (answer != expected[i] if expected is not None
                else isinstance(answer, Exception) or not possible(code, key, answer)):
            failed += 1
            if len(errors) < _KEPT_ERRORS:
                errors.append((OP_NAMES[code], key, repr(answer)))
        done += 1
        i += 1
        if i == n and cyclic:
            i = 0
        if calibrate:
            left -= 1
            if left:
                continue
            left = SLICE_OPS
            lengths = [len(a) for a in latencies]
            slices.append((slice_start, t1, done, lengths))
            calibrations.append(timed_block())
            if measured_from is None and t1 >= measure_at:
                measured_from = (t1, done, lengths)
                # every run meets the GC cycle at the same point
                gc.collect()
            slice_start = clock()
        elif measured_from is None and t1 >= measure_at:
            measured_from = (t1, done, [len(a) for a in latencies])
        if t1 >= deadline:
            break
    cursor.pos = i
    if calibrate and slices:
        # the measured part ends on the last whole slice
        end = slices[-1][1:]
    else:
        end = (clock(), done, [len(a) for a in latencies])
    results[slot] = ClientResult(latencies, done, failed, measured_from or end, end, errors,
                                 slices, calibrations)


def run_phase(structure, cursors: list, seconds: float, warmup: float = 0.0,
              wrap=None, calibrate: bool = False) -> PhaseResult:
    """Run one closed-loop client thread per cursor for ``warmup + seconds``;
    figures cover the last ``seconds`` only.  A non-cyclic list that runs out
    stops its client early.  ``calibrate`` needs a single cursor.

    ``wrap(code, fn)`` may replace each bound method the clients call; the
    traced run uses it to open an op span around every call.
    """
    if calibrate and len(cursors) != 1:
        raise ValueError("a calibrated phase has exactly one client")
    fns = [structure.get, structure.successor, structure.predecessor,
           structure.insert, structure.delete]
    if wrap is not None:
        fns = [wrap(code, fn) for code, fn in enumerate(fns)]
    barrier = threading.Barrier(len(cursors) + 1)
    results = [None] * len(cursors)
    crashes = []

    def guarded(cursor, slot):
        try:
            _client(fns, cursor, warmup, seconds, barrier, results, slot, calibrate)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            crashes.append(exc)
            barrier.abort()

    threads = [threading.Thread(target=guarded, args=(c, s), name="client-%d" % s,
                                daemon=True)
               for s, c in enumerate(cursors)]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    for t in threads:
        t.join(warmup + seconds + 120)
        if t.is_alive():
            raise RuntimeError("client thread %s did not stop" % t.name)
    if crashes:
        raise crashes[0]
    return PhaseResult(results)
