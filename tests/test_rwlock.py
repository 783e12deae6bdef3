import threading
import time

from dcveb.rwlock import FairRWLock


def test_readers_share():
    lock = FairRWLock()
    inside = []
    barrier = threading.Barrier(4)

    def reader():
        lock.acquire_read()
        barrier.wait(5)  # all four must be inside simultaneously
        inside.append(1)
        lock.release_read()

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(5)
    assert len(inside) == 4


def test_writer_excludes_everyone():
    lock = FairRWLock()
    counter = [0]

    def writer():
        for _ in range(2000):
            lock.acquire_write()
            value = counter[0]
            counter[0] = value + 1
            lock.release_write()

    threads = [threading.Thread(target=writer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counter[0] == 8000


def test_writer_blocks_reader_and_vice_versa():
    lock = FairRWLock()
    log = []

    lock.acquire_read()
    blocked = threading.Thread(target=lambda: (lock.acquire_write(),
                                               log.append("w"),
                                               lock.release_write()))
    blocked.start()
    time.sleep(0.05)
    assert log == []
    lock.release_read()
    blocked.join(5)
    assert log == ["w"]

    lock.acquire_write()
    blocked = threading.Thread(target=lambda: (lock.acquire_read(),
                                               log.append("r"),
                                               lock.release_read()))
    blocked.start()
    time.sleep(0.05)
    assert log == ["w"]
    lock.release_write()
    blocked.join(5)
    assert log == ["w", "r"]


def test_writer_not_starved_by_reader_stream():
    lock = FairRWLock()
    stop = time.monotonic() + 5.0
    writer_done = threading.Event()

    def reader():
        while not writer_done.is_set() and time.monotonic() < stop:
            lock.acquire_read()
            lock.release_read()

    def writer():
        time.sleep(0.05)  # let the reader stream saturate first
        lock.acquire_write()
        lock.release_write()
        writer_done.set()

    readers = [threading.Thread(target=reader) for _ in range(4)]
    w = threading.Thread(target=writer)
    for t in readers:
        t.start()
    w.start()
    w.join(5)
    for t in readers:
        t.join(5)
    assert writer_done.is_set()


def test_reader_not_starved_by_writer_stream():
    lock = FairRWLock()
    stop = time.monotonic() + 5.0
    reader_done = threading.Event()

    def writer():
        while not reader_done.is_set() and time.monotonic() < stop:
            lock.acquire_write()
            lock.release_write()

    def reader():
        time.sleep(0.05)
        lock.acquire_read()
        lock.release_read()
        reader_done.set()

    writers = [threading.Thread(target=writer) for _ in range(4)]
    r = threading.Thread(target=reader)
    for t in writers:
        t.start()
    r.start()
    r.join(5)
    for t in writers:
        t.join(5)
    assert reader_done.is_set()


def test_uncontended_cycles_create_no_queue():
    lock = FairRWLock()
    for _ in range(3):
        lock.acquire_read()
        lock.acquire_read()
        lock.release_read()
        lock.release_read()
        lock.acquire_write()
        lock.release_write()
    assert lock._queue is None


def test_queued_readers_batch_together():
    lock = FairRWLock()
    lock.acquire_write()
    admitted = []
    barrier = threading.Barrier(3)

    def reader():
        lock.acquire_read()
        barrier.wait(5)  # both queued readers must be admitted as one group
        admitted.append(1)
        lock.release_read()

    readers = [threading.Thread(target=reader) for _ in range(2)]
    for t in readers:
        t.start()
    time.sleep(0.05)
    waiter = threading.Thread(target=barrier.wait, args=(5,))
    waiter.start()
    lock.release_write()
    for t in readers:
        t.join(5)
    waiter.join(5)
    assert len(admitted) == 2


def test_mixed_stress_consistency():
    lock = FairRWLock()
    shared = {"value": 0, "snapshots": []}

    def writer():
        for _ in range(500):
            lock.acquire_write()
            shared["value"] += 1
            lock.release_write()

    def reader():
        for _ in range(500):
            lock.acquire_read()
            shared["snapshots"].append(shared["value"])
            lock.release_read()

    threads = [threading.Thread(target=writer) for _ in range(3)]
    threads += [threading.Thread(target=reader) for _ in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert shared["value"] == 1500
    assert all(0 <= s <= 1500 for s in shared["snapshots"])
