"""Stand-ins for the objects ``DcvebArray`` reads through its attributes.

``SpyIndex`` replaces ``_bottoms`` and ``SpyGuard`` replaces ``_ap_lock``;
a node's mutex is replaced with ``RunOnEnter`` (or ``RunOnEveryEnter``),
and a node's ``parent`` with ``ActOnFirstRead``.  Together they pause an
operation at a chosen point and count what a path touched, so core needs
no hooks and every scripted race is a plain test in ``test_race_edges``.
"""

import threading

from dcveb.rwlock import FairRWLock


class SpyIndex(dict):
    """Bottom-node index that counts ``get`` probes, logs every item store,
    and can run one action just before or just after a chosen probe.

    Every operation makes one probe before it takes any lock or reads any
    node; an order query makes no other, since it leaves its start node by
    climbing ``parent`` links.  A growth that drops an empty height-1 root
    and the unlink of a bottom node probe once more each.
    """

    def __init__(self, items=()):
        super().__init__(items)
        self.probes = 0
        self.stores = []  # (prefix, mutex held, retired, word, slots)
        self._action = None
        self._at = 0
        self._after = False

    @classmethod
    def install(cls, array):
        index = array._bottoms = cls(array._bottoms)
        return index

    def arm(self, action, probe=1, after=False):
        """Run ``action`` once, before (or, with ``after``, right after) the
        ``probe``-th ``get`` from now.  Resets the probe count."""
        self.probes = 0
        self._action, self._at, self._after = action, probe, after

    def _fire(self):
        action, self._action = self._action, None
        action()

    def get(self, prefix, default=None):
        self.probes += 1
        fire = self._action is not None and self.probes == self._at
        if fire and not self._after:
            self._fire()
        node = super().get(prefix, default)
        if fire and self._after:
            self._fire()
        return node

    def __setitem__(self, prefix, node):
        self.stores.append((prefix, node._mutex.locked(), node.retired,
                            node.value, list(node.children)))
        super().__setitem__(prefix, node)


class RunOnEnter:
    """Stand-in for a node's mutex that runs ``action`` once, on the first
    ``with`` entry or ``acquire`` call, before taking the real lock.

    That first entry may be an insert's ``cas_child`` (under the root
    guard's read lock) or its entry store, a delete's slot clear or a step
    of its climb, which enters the parent's mutex before the child's, or a
    growth or trim on the old root (under the guard's write lock).  An
    action that raises leaves the real lock untaken."""

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


class RunOnEveryEnter(RunOnEnter):
    """``RunOnEnter`` that runs ``action`` on every entry, in the entering
    thread, not just on the first."""

    def _run_action(self):
        self._action()


class ActOnFirstRead:
    """Stand-in for a node in another node's ``parent``: runs ``action`` on
    its first attribute read, then forwards every read to ``node``.  A
    climbing query reads the parent's slots first, so the action runs just
    before the climb looks at the parent."""

    def __init__(self, node, action):
        self._node = node
        self._action = action

    def __getattr__(self, name):
        action, self._action = self._action, None
        if action is not None:
            action()
        return getattr(self._node, name)


class SpyGuard(FairRWLock):
    """Root guard that logs every acquire, in ``acquires`` and per thread
    ident in ``by_thread``, knows whether the calling thread holds it for
    reading, and sets ``write_queued`` once a write acquire has queued to
    wait for the holders."""

    def __init__(self):
        super().__init__()
        self.acquires = []
        self.by_thread = {}
        self.write_queued = threading.Event()
        self._reading = threading.local()

    @classmethod
    def install(cls, array):
        guard = array._ap_lock = cls()
        return guard

    def held_for_reading(self):
        return getattr(self._reading, "held", False)

    def _log(self, kind):
        self.acquires.append(kind)
        self.by_thread.setdefault(threading.get_ident(), []).append(kind)

    def acquire_read(self):
        self._log("read")
        super().acquire_read()
        self._reading.held = True

    def release_read(self):
        self._reading.held = False
        super().release_read()

    def acquire_write(self):
        self._log("write")
        super().acquire_write()

    def _enqueue_locked(self, group):
        super()._enqueue_locked(group)
        if group.kind == "w":
            self.write_queued.set()


def record_calls(array, name):
    """Replace the array's method ``name`` with an instance attribute that
    logs each call's arguments before making it; returns the log."""
    calls = []
    method = getattr(array, name)

    def recorded(*args):
        calls.append(args)
        return method(*args)

    setattr(array, name, recorded)
    return calls
