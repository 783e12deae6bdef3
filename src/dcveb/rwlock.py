"""Fair readers-writer lock: the tree's published-parameters guard.

An insert's descent (never its store, which takes only the bottom node's
mutex) and a delete's guarded second unlink pass hold it shared; growths
and trims hold it exclusively to publish.  Admission is FIFO by arrival
group: consecutive readers are batched into one group and admitted
together; a writer forms its own group.  A reader arriving while any group
is queued (i.e. a writer is waiting) queues behind it, so neither side can
starve the other.  This starvation freedom is a progress requirement for
the tree operations built on top, not an optimization: a stream of
descending inserts cannot hold a growth or a trim off for ever.

Waiting groups park on their own Event, so an admission wakes exactly the
admitted group, and the uncontended paths cost one plain mutex acquisition.
The queue list itself is created by the first waiter, so a lock that is
never contended never allocates one.
"""

from __future__ import annotations

import threading


class _WaitGroup:
    __slots__ = ("kind", "count", "event")

    def __init__(self, kind: str):
        self.kind = kind
        self.count = 1
        self.event = threading.Event()


class FairRWLock:
    __slots__ = ("_mutex", "_active_readers", "_writer_active", "_queue")

    def __init__(self):
        self._mutex = threading.Lock()
        self._active_readers = 0
        self._writer_active = False
        self._queue: list[_WaitGroup] | None = None

    def acquire_read(self) -> None:
        mutex = self._mutex
        mutex.acquire()
        queue = self._queue
        if not self._writer_active and not queue:
            self._active_readers += 1
            mutex.release()
            return
        # queued groups are never yet admitted, so a reader tail is joinable
        if queue and queue[-1].kind == "r":
            group = queue[-1]
            group.count += 1
        else:
            group = _WaitGroup("r")
            self._enqueue_locked(group)
        mutex.release()
        group.event.wait()

    def release_read(self) -> None:
        mutex = self._mutex
        mutex.acquire()
        self._active_readers -= 1
        if self._active_readers == 0 and self._queue and not self._writer_active:
            self._admit_locked()
        mutex.release()

    def acquire_write(self) -> None:
        mutex = self._mutex
        mutex.acquire()
        if not self._writer_active and self._active_readers == 0 and not self._queue:
            self._writer_active = True
            mutex.release()
            return
        group = _WaitGroup("w")
        self._enqueue_locked(group)
        mutex.release()
        group.event.wait()

    def release_write(self) -> None:
        mutex = self._mutex
        mutex.acquire()
        self._writer_active = False
        if self._queue:
            self._admit_locked()
        mutex.release()

    def _enqueue_locked(self, group: _WaitGroup) -> None:
        if self._queue is None:
            self._queue = [group]
        else:
            self._queue.append(group)

    def _admit_locked(self) -> None:
        # caller holds the mutex; lock is free and the queue is non-empty
        group = self._queue.pop(0)
        if group.kind == "w":
            self._writer_active = True
        else:
            self._active_readers += group.count
        group.event.set()
